package wal

import "graphkeys/internal/obs"

// Obs is the WAL's instrument bundle. Every handle may be nil (they
// no-op), and so may the bundle: an unobserved store pays a nil check
// per commit.
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

func (o *Obs) fsyncNanos() *obs.Histogram {
	if o == nil {
		return nil
	}
	return o.FsyncNanos
}

func (o *Obs) snapshotNanos() *obs.Histogram {
	if o == nil {
		return nil
	}
	return o.SnapshotNanos
}

func (o *Obs) records() *obs.Counter {
	if o == nil {
		return nil
	}
	return o.Records
}

func (o *Obs) rewinds() *obs.Counter {
	if o == nil {
		return nil
	}
	return o.Rewinds
}

// RegisterObs builds an Obs wired to conventionally named instruments
// of the registry and installs it. A nil registry installs nothing.
// Safe to call concurrently with appends.
func (s *Store) RegisterObs(r *obs.Registry) {
	if r == nil {
		return
	}
	o := &Obs{
		FsyncNanos:    r.Histogram("wal.fsync_ns", "commit fsync latency", obs.DurationBuckets()),
		SnapshotNanos: r.Histogram("wal.snapshot_ns", "snapshot write latency (seed or compaction)", obs.DurationBuckets()),
		Records:       r.Counter("wal.records", "records durably appended"),
		Rewinds:       r.Counter("wal.rewinds", "failed commits rewound"),
	}
	s.mu.Lock()
	s.ob = o
	s.mu.Unlock()
}
