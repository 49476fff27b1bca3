package wal

import "graphkeys/internal/obs"

// Obs is the WAL's instrument bundle. A Store holds it by value: its
// zero value, with every handle nil, is an unobserved store, and every
// handle method is a no-op on nil.
type Obs struct {
	// FsyncNanos observes the latency of each commit's fsync (only
	// under SyncAlways — SyncNone commits never sync).
	FsyncNanos *obs.Histogram
	// SnapshotNanos observes each snapshot write, seed or compaction:
	// graph text, temp file, fsyncs, rename, log truncation.
	SnapshotNanos *obs.Histogram
	// Records counts records durably appended; Rewinds counts failed
	// commits that rewound the log to the record's start.
	Records *obs.Counter
	Rewinds *obs.Counter
}

// RegisterObs builds an Obs wired to conventionally named instruments
// of the registry and installs it. A nil registry installs nothing.
// Safe to call concurrently with appends.
func (s *Store) RegisterObs(r *obs.Registry) {
	if r == nil {
		return
	}
	o := Obs{
		FsyncNanos:    r.Histogram("wal.fsync_ns", "commit fsync latency", obs.DurationBuckets()),
		SnapshotNanos: r.Histogram("wal.snapshot_ns", "snapshot write latency (seed or compaction)", obs.DurationBuckets()),
		Records:       r.Counter("wal.records", "records durably appended"),
		Rewinds:       r.Counter("wal.rewinds", "failed commits rewound"),
	}
	s.mu.Lock()
	s.ob = o
	s.mu.Unlock()
}
