package wal

import "graphkeys/internal/obs"

// Obs is the WAL's instrument bundle. Every handle may be nil (they
// no-op); an unobserved store pays one atomic load per group flush.
type Obs struct {
	// GroupSize observes the number of records each group flush wrote
	// as one chunk — the group-commit amortization, bounded above by
	// DefaultGroupLimit.
	GroupSize *obs.Histogram
	// FsyncNanos observes the latency of each group's fsync (only
	// under SyncAlways — SyncNone groups never sync).
	FsyncNanos *obs.Histogram
	// SnapshotNanos observes each snapshot write, seed or compaction:
	// graph text, temp file, fsyncs, rename, log truncation.
	SnapshotNanos *obs.Histogram
	// Records counts records durably appended; Rewinds counts failed
	// group flushes that rewound the log to the group start.
	Records *obs.Counter
	Rewinds *obs.Counter
}

func (o *Obs) groupSize() *obs.Histogram {
	if o == nil {
		return nil
	}
	return o.GroupSize
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

// SetObserver installs (or, with nil, removes) the store's
// instruments. Safe to call concurrently with appends.
func (s *Store) SetObserver(o *Obs) {
	s.ob.Store(o)
}

// RegisterObs builds an Obs wired to conventionally named instruments
// of the registry and installs it. A nil registry installs nothing.
func (s *Store) RegisterObs(r *obs.Registry) {
	if r == nil {
		return
	}
	s.SetObserver(&Obs{
		GroupSize:     r.Histogram("wal.group_size", "records per group-commit flush", obs.SizeBuckets()),
		FsyncNanos:    r.Histogram("wal.fsync_ns", "group fsync latency", obs.DurationBuckets()),
		SnapshotNanos: r.Histogram("wal.snapshot_ns", "snapshot write latency (seed or compaction)", obs.DurationBuckets()),
		Records:       r.Counter("wal.records", "records durably appended"),
		Rewinds:       r.Counter("wal.rewinds", "failed group flushes rewound"),
	})
}
