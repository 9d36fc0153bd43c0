// Package wal is the serving stack's evidence write-ahead log: every
// accepted evidence batch is appended as one frame — and fsynced — *before*
// it is applied to the live system, so a crash between the ack and the apply
// loses nothing. On boot the log is replayed over the freshly loaded program
// (restart = load + replay, not re-derive); a torn or corrupted tail — the
// signature of a crash mid-append — is truncated away, recovering the longest
// clean prefix.
//
// The log is one append-only internal/frame container ("SYAW", version 1),
// one frame per record. A record payload is the evidence batch exactly as the
// API accepted it: relation name plus rows of text cells (parsing against the
// schema is the applier's job, so a schema change surfaces at replay, loudly).
package wal

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/frame"
	"repro/internal/obs"
)

// logFormat is the container of the log. A frame longer than MaxPayload is
// treated as tail corruption.
var logFormat = frame.Format{Magic: 0x53594157 /* "SYAW" */, Version: 1, MaxPayload: 1 << 28, Name: "WAL"}

// Record is one durable evidence batch: the upsert exactly as accepted by
// the API, before parsing.
type Record struct {
	Relation string
	Rows     [][]string
}

// Options parameterizes a Log.
type Options struct {
	// Metrics receives the sya_wal_* series (nil disables).
	Metrics *obs.Registry
}

// ReplayStats reports what Open recovered.
type ReplayStats struct {
	// LogRecords came from the log.
	LogRecords int
	// Truncated reports that a torn or corrupted tail was cut off.
	Truncated bool
	// TruncatedAt is the offset the log was truncated to (when Truncated).
	TruncatedAt int64
}

// Log is an open write-ahead log. It is not internally synchronized: the
// server's upsert path is already serialized (one writer at a time), so the
// Log expects at most one Append caller at a time.
type Log struct {
	f    *os.File
	size int64 // current end-of-log write offset

	records []Record // what Open replayed; appends do not grow it
	logged  int      // records in the log: replayed plus appended

	// span is the request span of the in-flight AppendCtx call, so Append
	// can attribute its fsync to the request's trace; zero outside AppendCtx
	// (the Log is single-writer, so a plain field is race-free).
	span obs.Span

	mAppends   *obs.Counter
	mBytes     *obs.Counter
	mFsyncs    *obs.Counter
	mReplayed  *obs.Counter
	mTruncated *obs.Counter
	mRecords   *obs.Gauge
	mSyncTime  *obs.Histogram
}

// Open opens (creating if absent) the log at path and replays it,
// truncating any torn tail. The recovered records are available via
// Records; new appends go to the end of the log.
//
// Open refuses a log with a snapshot beside it (path+".snap" or
// path+".snap.prev"): earlier builds compacted acked records out of the log
// into those files, so replaying the log alone would silently drop them.
func Open(path string, opts Options) (*Log, ReplayStats, error) {
	var stats ReplayStats
	for _, snap := range []string{path + ".snap", path + ".snap.prev"} {
		if _, err := os.Lstat(snap); err == nil {
			return nil, stats, fmt.Errorf("wal: %s beside the log is a compacted snapshot; replaying the log alone would drop its records", snap)
		} else if !os.IsNotExist(err) {
			return nil, stats, fmt.Errorf("wal: %w", err)
		}
	}
	m := opts.Metrics
	l := &Log{
		mAppends:   m.Counter("sya_wal_appends_total"),
		mBytes:     m.Counter("sya_wal_appended_bytes_total"),
		mFsyncs:    m.Counter("sya_wal_fsyncs_total"),
		mReplayed:  m.Counter("sya_wal_replayed_records_total"),
		mTruncated: m.Counter("sya_wal_truncated_tails_total"),
		mRecords:   m.Gauge("sya_wal_records"),
		mSyncTime:  m.Histogram("sya_wal_fsync_seconds", nil),
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, stats, fmt.Errorf("wal: %w", err)
	}
	l.f = f
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, stats, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	recs, good, err := scanRecords(raw)
	switch {
	case len(raw) < frame.HeaderSize:
		// New (or header-torn) log: start it fresh.
		err = l.reset()
	case good == 0:
		// A whole header with the wrong magic or version is the wrong file,
		// not a tear: truncating it would destroy someone's data.
		err = fmt.Errorf("wal: %s: %w", path, err)
	case err != nil:
		// Crash mid-append: cut the torn tail, keeping the clean prefix.
		if err = l.truncate(int64(good)); err == nil {
			err = l.f.Sync()
		}
		if err != nil {
			err = fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
		stats.Truncated = true
		stats.TruncatedAt = int64(good)
		l.mTruncated.Inc()
	default:
		l.size = int64(good) // io.ReadAll left the offset here
	}
	if err != nil {
		f.Close()
		return nil, stats, err
	}
	stats.LogRecords = len(recs)
	l.records = recs
	l.logged = len(recs)
	l.mReplayed.Add(uint64(len(recs)))
	l.mRecords.Set(float64(len(recs)))
	return l, stats, nil
}

// truncate cuts the log file to size bytes and moves the write offset there.
func (l *Log) truncate(size int64) error {
	if err := l.f.Truncate(size); err != nil {
		return err
	}
	l.size = size
	_, err := l.f.Seek(size, io.SeekStart)
	return err
}

// reset rewrites the log as an empty headered file.
func (l *Log) reset() error {
	err := l.truncate(0)
	if err == nil {
		_, err = l.f.Write(logFormat.AppendHeader(nil))
	}
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.size = frame.HeaderSize
	return nil
}

// Records returns the records Open replayed, oldest first. The slice is
// shared; callers must not mutate it.
func (l *Log) Records() []Record { return l.records }

// Append frames, writes and fsyncs one record: when it returns nil the
// record is durable. On a write error the log is truncated back to the last
// good frame so a partial frame cannot corrupt the middle of the file once
// later appends succeed.
func (l *Log) Append(rec Record) error {
	frm := frame.Append(nil, encodeRecord(rec))
	if _, err := l.f.Write(frm); err != nil {
		_ = l.truncate(l.size) // best effort: cut whatever partial frame landed
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(frm))
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	d := time.Since(start)
	l.mSyncTime.Observe(d.Seconds())
	l.span.Event("wal_fsync", d)
	l.mFsyncs.Inc()
	l.logged++
	l.mAppends.Inc()
	l.mBytes.Add(uint64(len(frm)))
	l.mRecords.Set(float64(l.logged))
	return nil
}

// AppendCtx is Append under a request context: when the context carries an
// obs request span, the fsync inside the append is recorded as a child
// stage of that request's trace (the sya_wal_fsync_seconds histogram is
// observed either way).
func (l *Log) AppendCtx(ctx context.Context, rec Record) error {
	l.span = obs.SpanFromContext(ctx)
	defer func() { l.span = obs.Span{} }()
	return l.Append(rec)
}

// Close closes the log file. Every successful Append was already fsynced.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	if err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// FrameOffsets returns the record-boundary byte offsets of a log file: the
// offset after the header, then after each complete, CRC-valid frame. The
// chaos harness tears files at (and between) these offsets; offs[k] is the
// file size at which exactly k records survive.
func FrameOffsets(path string) ([]int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < frame.HeaderSize {
		return []int64{int64(len(raw))}, nil
	}
	offs := []int64{frame.HeaderSize}
	good, err := logFormat.Scan(raw, func(payload []byte) error {
		offs = append(offs, offs[len(offs)-1]+int64(frame.FrameHeaderSize+len(payload)))
		return nil
	})
	if good == 0 {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return offs, nil
}

// scanRecords decodes the records of a log image up to the first bad frame.
// good and err are frame.Scan's: err is nil exactly when the whole image was
// clean, good == 0 means the header was rejected, anything else is the end of
// the clean prefix (where the log is cut). A CRC-clean frame that does not
// decode as a record ends the prefix like any other bad frame.
func scanRecords(raw []byte) (recs []Record, good int, err error) {
	good, err = logFormat.Scan(raw, func(payload []byte) error {
		rec, err := decodeRecord(payload)
		if err == nil {
			recs = append(recs, rec)
		}
		return err
	})
	return recs, good, err
}

// encodeRecord serializes one record payload (little-endian: relation,
// row count, then per-row cell counts and cells; every string u32
// length-prefixed).
func encodeRecord(rec Record) []byte {
	size := 4 + len(rec.Relation) + 4
	for _, row := range rec.Rows {
		size += 4
		for _, cell := range row {
			size += 4 + len(cell)
		}
	}
	le := binary.LittleEndian
	buf := le.AppendUint32(make([]byte, 0, size), uint32(len(rec.Relation)))
	buf = le.AppendUint32(append(buf, rec.Relation...), uint32(len(rec.Rows)))
	for _, row := range rec.Rows {
		buf = le.AppendUint32(buf, uint32(len(row)))
		for _, cell := range row {
			buf = append(le.AppendUint32(buf, uint32(len(cell))), cell...)
		}
	}
	return buf
}

// decodeRecord parses a record payload. Every count is checked against the
// bytes that remain before anything is allocated for it (a row is at least
// its 4-byte cell count, a cell its 4-byte length).
func decodeRecord(payload []byte) (Record, error) {
	c := frame.Cursor{Buf: payload}
	rec := Record{Relation: c.Str()}
	for i, nrows := 0, c.Count(4); i < nrows && c.Err == nil; i++ {
		row := make([]string, c.Count(4))
		for j := range row {
			row[j] = c.Str()
		}
		rec.Rows = append(rec.Rows, row)
	}
	return rec, c.Done()
}
