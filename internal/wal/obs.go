package wal

import "graphkeys/internal/obs"

// Obs is the WAL's instrument bundle. A Store holds it by value: its
// zero value, with every handle nil, is an unobserved store, and every
// handle method is a no-op on nil.
type Obs struct {
	// FsyncNanos observes the latency of each group commit's fsync
	// (only under SyncAlways — SyncNone commits never sync); GroupSize
	// observes the deltas of each committed group.
	FsyncNanos *obs.Histogram
	GroupSize  *obs.Histogram
	// SnapshotNanos observes each snapshot write, seed or compaction:
	// graph tables, temp file, fsyncs, rename, log truncation.
	SnapshotNanos *obs.Histogram
	// Records counts deltas durably appended; Rewinds counts failed
	// commits that rewound the log to the group's start.
	Records *obs.Counter
	Rewinds *obs.Counter
	// The directory's state, for a checkpoint policy and /debug/state:
	// the snapshot's seq, size in bytes and write time (Unix ms; 0
	// without a snapshot), and the log bytes appended since it.
	SnapshotSeq   *obs.Gauge
	SnapshotBytes *obs.Gauge
	SnapshotTime  *obs.Gauge
	LogBytes      *obs.Gauge
}

// RegisterObs builds an Obs wired to conventionally named instruments
// of the registry and installs it. A nil registry installs nothing.
// Safe to call concurrently with appends.
func (s *Store) RegisterObs(r *obs.Registry) {
	if r == nil {
		return
	}
	o := Obs{
		FsyncNanos:    r.Histogram("wal.fsync_ns", "group commit fsync latency", obs.DurationBuckets()),
		GroupSize:     r.Histogram("wal.group_size", "deltas per committed group", obs.SizeBuckets()),
		SnapshotNanos: r.Histogram("wal.snapshot_ns", "snapshot write latency (seed or compaction)", obs.DurationBuckets()),
		Records:       r.Counter("wal.records", "deltas durably appended"),
		Rewinds:       r.Counter("wal.rewinds", "failed commits rewound"),
		SnapshotSeq:   r.Gauge("wal.snapshot_seq", "seq the snapshot covers"),
		SnapshotBytes: r.Gauge("wal.snapshot_bytes", "snapshot file size"),
		SnapshotTime:  r.Gauge("wal.snapshot_time_ms", "snapshot write time, Unix ms (0 without a snapshot)"),
		LogBytes:      r.Gauge("wal.log_bytes", "log bytes appended since the snapshot"),
	}
	s.mu.Lock()
	s.ob = o
	s.publishLocked()
	s.mu.Unlock()
}

// publishLocked sets the directory-state gauges from the store. Caller
// holds s.mu.
func (s *Store) publishLocked() {
	s.ob.SnapshotSeq.Set(int64(s.snapSeq))
	s.ob.SnapshotBytes.Set(s.snapBytes)
	s.ob.LogBytes.Set(s.off - int64(len(logMagic)))
	var ms int64
	if !s.snapTime.IsZero() {
		ms = s.snapTime.UnixMilli()
	}
	s.ob.SnapshotTime.Set(ms)
}
