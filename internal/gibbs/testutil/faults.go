package testutil

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// This file is the fault-injection plane of the harness: helpers that turn
// the samplers' TestHooks into reproducible failures (a worker panic at the
// k-th dispatched chunk, a context cancel at the e-th epoch), tear files
// the way a crash would, and assert that the runtime
// neither leaks goroutines nor deadlocks when those failures strike.

// PanicAtChunk returns a BeforeChunk hook that panics with a recognizable
// value when the n-th chunk (0-based, in dispatch order) starts executing.
func PanicAtChunk(n uint64) func(uint64) {
	return func(chunk uint64) {
		if chunk == n {
			panic(fmt.Sprintf("testutil: injected fault at chunk %d", n))
		}
	}
}

// CancelAtEpoch returns an AfterEpoch hook that calls cancel as soon as the
// sampler finishes its e-th total epoch — the tightest deterministic way to
// land a cancellation inside a run.
func CancelAtEpoch(cancel func(), e int) func(int) {
	return func(epoch int) {
		if epoch >= e {
			cancel()
		}
	}
}

// TearFileAt truncates the file to exactly off bytes, simulating a crash
// mid-write on a filesystem that exposed the partial content; the WAL chaos
// sweep places the tear at (and between) every frame boundary.
func TearFileAt(path string, off int64) error {
	return os.Truncate(path, off)
}

// CopyFile copies src to dst (overwriting dst), so a chaos test can tear a
// copy of a log at many different offsets without rebuilding it each time.
func CopyFile(dst, src string) error {
	raw, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, raw, 0o644)
}

// GoroutineLeakCheck snapshots the goroutine count; calling the returned
// function asserts the count returned to (at most) the baseline, retrying
// for a grace period so exiting goroutines can be reaped. Use as
//
//	defer testutil.GoroutineLeakCheck(t)()
//
// before constructing pooled samplers.
func GoroutineLeakCheck(t interface {
	Helper()
	Errorf(format string, args ...any)
}) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		var n int
		for {
			runtime.GC() // run pool finalizers for samplers left to the GC
			n = runtime.NumGoroutine()
			if n <= base || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if n > base {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Errorf("goroutine leak: %d before, %d after\n%s", base, n, buf)
		}
	}
}
