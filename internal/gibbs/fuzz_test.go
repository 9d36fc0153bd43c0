package gibbs_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/gibbs"
)

// checkpointFile frames body the way checkpoint.go does ("SYAC" version 2,
// one frame).
func checkpointFile(body []byte) []byte {
	return frame.Append([]byte{'C', 'A', 'Y', 'S', 2, 0, 0, 0}, body)
}

// decodeMeasured runs ReadCheckpoint reporting what it allocated.
func decodeMeasured(raw []byte) (cp *gibbs.Checkpoint, err error, alloc uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cp, err = gibbs.ReadCheckpoint(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	return cp, err, after.TotalAlloc - before.TotalAlloc
}

// TestHostileCheckpointBounded: a CRC-valid checkpoint whose pin count claims
// 2^30 entries used to make ReadCheckpoint allocate 1 GiB and loop 2^30 times
// before reporting the short read. The count is now checked against the bytes
// that remain before anything is allocated.
func TestHostileCheckpointBounded(t *testing.T) {
	le := binary.LittleEndian
	body := append(le.AppendUint32(nil, 1), 's') // sampler "s"
	body = append(body, make([]byte, 32)...)     // seed, epochs, workers, rng
	body = le.AppendUint32(body, 1<<30)          // pinned count
	cp, err, alloc := decodeMeasured(checkpointFile(body))
	if err == nil {
		t.Fatalf("hostile checkpoint decoded: %+v", cp)
	}
	fastest := time.Hour // best of three, so a scheduling hiccup is not a failure
	for i := 0; i < 3; i++ {
		start := time.Now()
		gibbs.ReadCheckpoint(bytes.NewReader(checkpointFile(body)))
		fastest = min(fastest, time.Since(start))
	}
	if fastest > 10*time.Millisecond {
		t.Errorf("rejected after %v, want < 10ms", fastest)
	}
	if alloc > 1<<20 {
		t.Errorf("rejected after allocating %d bytes, want < 1 MB", alloc)
	}
	if !strings.Contains(err.Error(), "payload offset 41: count 1073741824") {
		t.Errorf("error %q does not name the offending count and its offset", err)
	}
}

// TestV1CheckpointRejected: the version-1 layout (header | body | CRC-32
// trailer over everything before it) is refused by its version word, never
// misread as a frame.
func TestV1CheckpointRejected(t *testing.T) {
	v2, err := os.ReadFile(filepath.Join("testdata", "sequential.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte{'C', 'A', 'Y', 'S', 1, 0, 0, 0}, v2[frame.HeaderSize+frame.FrameHeaderSize:]...)
	v1 = binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE(v1))
	_, err = gibbs.ReadCheckpoint(bytes.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), "unsupported checkpoint version 1 (want 2)") {
		t.Errorf("v1 checkpoint: %v, want the unsupported-version error", err)
	}
}

// FuzzReadCheckpoint: decoding arbitrary bytes never panics and allocates in
// proportion to the input, and whatever decodes re-encodes to something that
// decodes to the same checkpoint.
func FuzzReadCheckpoint(f *testing.F) {
	for _, kind := range []string{"sequential", "hogwild", "spatial"} {
		raw, err := os.ReadFile(filepath.Join("testdata", kind+".ckpt"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	f.Add(checkpointFile(nil))
	f.Add([]byte("CAYS"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		cp, err, alloc := decodeMeasured(raw)
		if limit := uint64(32*len(raw) + 64<<10); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(raw), alloc)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := cp.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := gibbs.ReadCheckpoint(&buf)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if !reflect.DeepEqual(cp, again) {
			t.Fatalf("decode∘encode∘decode ≠ decode:\n first %+v\n again %+v", cp, again)
		}
	})
}
