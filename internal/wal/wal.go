// Package wal is the durable delta log of the write path: an
// append-only file of length-prefixed, CRC-protected groups, each group
// the *normalized* op lists of the deltas one batch applied (see
// internal/graph/plan.go — the write-ahead hook hands them over in the
// order the deltas apply in), plus a snapshot file that compacts the
// log.
//
// The log is the magic "GKWALOG2", then one frame per group:
//
//	[len u32][crc u32] payload
//	payload: uvarint base seq, uvarint n,
//	         then per delta: uvarint op count and its ops
//
// The deltas of a group carry the seqs base, base+1, …, base+n−1. A
// store's writer adds the deltas of a batch to an open group (Add, no
// I/O) and commits the group once (Commit: one write and, under
// SyncAlways, one fsync), so a batch pays one frame and one fsync
// whatever its size. A group is atomic on recovery: a torn or corrupt
// frame drops the whole group, never a prefix of its deltas. A version 1
// log ("GKWALOG1", one frame per delta) is refused by name at Open and
// left as it is.
//
// A delta is stored at name level (external entity IDs, value literals,
// predicate names), so replaying the records in log order against the
// snapshot graph reconstructs the store byte-identically: normalized
// records are exact net effects, and the graph applies its deltas one
// at a time in log order, allocating a delta's nodes as it lowers — so a
// sequential replay allocates the same node IDs.
//
// The snapshot (version 3) is one text header line,
// "#gkwal-snapshot v3 seq=N", then binary: the graph's own tables
// (graph.WriteTables — interned names, the label heap, the node table,
// the ID triples), pairs of entity IDs whose closure is the matcher's
// fixpoint at the snapshot point, and a CRC-32 of everything before it.
// A load reads the tables back at their final sizes instead of parsing
// text, and every name round-trips, whatever bytes it holds. The
// matcher stores one star per class, k − 1 pairs for a class of k; the
// pairs let an opener cross-check that re-deriving the fixpoint over
// the snapshot graph reproduces the state the snapshot was taken from.
// A version 2 snapshot has the same body, its pairs every pair of each
// class, and reads as version 3 does; a version 2 reader refuses a
// version 3 snapshot by its header. A snapshot
// records the sequence number it covers; records with seq <= that are
// skipped on replay, which closes the crash window between snapshot
// rename and log truncation. A version 1 snapshot (text) is refused by
// name at Open and left as it is.
//
// Torn tails are expected: a crash mid-append leaves a short or
// CRC-broken final group, which Open drops by truncating the file at
// the last good offset.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphkeys/internal/graph"
)

// SyncPolicy selects the append durability of the log.
type SyncPolicy int

const (
	// SyncNone appends without fsync; the OS decides when bytes reach
	// the disk. A crash may lose the most recent groups but never
	// corrupts the prefix.
	SyncNone SyncPolicy = iota
	// SyncAlways fsyncs after every appended group.
	SyncAlways
)

const (
	logName    = "wal.log"
	snapName   = "snapshot"
	logMagic   = "GKWALOG2"
	snapHeader = "#gkwal-snapshot v3"
	// snapHeaderV2 heads a snapshot whose pairs are every pair of each
	// class: the body is a version 3 one, and reads as one.
	snapHeaderV2 = "#gkwal-snapshot v2"
)

// Version 1 files are recognised only to be refused by name. Commit
// lastV1Reader is the last that reads them: opening a directory with it
// rewrites a version 1 log as version 2, and its Snapshot writes a
// version 2 snapshot.
const (
	logMagicV1   = "GKWALOG1"
	snapHeaderV1 = "#gkwal-snapshot v1"
	lastV1Reader = "c07745e"
)

// groupHead is the room an open group leaves at its front: the frame
// header and the two uvarints (base seq, delta count) that Commit writes
// right-aligned into it once the count is known, so the frame goes out
// in one write without a copy.
const groupHead = 8 + 2*binary.MaxVarintLen64

// Record is one logged delta: its sequence number and its normalized
// ops.
type Record struct {
	Seq uint64
	Ops []graph.DeltaOp
}

// logFile is the slice of *os.File the append path uses. It exists as
// an interface so the fault-injection tests can interpose a wrapper
// that errors mid-append or mid-fsync (see testFileHook).
type logFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

// testFileHook, when non-nil, wraps the log file at Open. Tests use it
// to inject write/fsync failures; production code never sets it.
var testFileHook func(logFile) logFile

// syncFault, when set, is the fault every commit's fsync fails with
// (see FailSyncs).
var syncFault atomic.Pointer[fault]

type fault struct {
	err    error
	rewind bool // the rewind after the failed fsync fails too
}

// FailSyncs is a test seam for the packages above wal: until restore
// runs, the fsync of every commit, of every store, fails with err, and
// the commit rewinds as it does on a dying device. With failRewind the
// rewind fails with err as well, before it truncates anything: the
// store breaks with the failed group still whole in the log.
// Production code never calls it.
func FailSyncs(err error, failRewind bool) (restore func()) {
	syncFault.Store(&fault{err, failRewind})
	return func() { syncFault.Store(nil) }
}

// Store is an open WAL directory with one writer, which adds the deltas
// of a batch to the open group and commits the group before anything
// else touches the log (the durable matcher does both under its lock).
// Its methods are safe for concurrent use; the loader methods
// (SnapshotGraph, SnapshotPairs, Records) report the state found at
// Open.
type Store struct {
	dir    string
	policy SyncPolicy

	mu   sync.Mutex
	f    logFile
	lock *os.File // exclusive dir lock (see lockDir)
	off  int64    // current append offset (end of the good prefix)
	seq  uint64   // last assigned sequence number, the open group's included

	// group is the open group: groupHead bytes of room, then each added
	// delta's op count and ops; n is its delta count, 0 when no group is
	// open (its seqs are seq-n+1 … seq). broken disables the store when
	// a failed append cannot even be rewound.
	group  []byte
	n      int
	broken error

	// ob is the instrument bundle (see obs.go); the zero value is
	// uninstrumented.
	ob Obs

	snapSeq   uint64
	snapBytes int64     // the snapshot file's size, 0 without one
	snapTime  time.Time // when it was written (its mtime, for one found at Open)
	snapGraph *graph.Graph
	snapPairs [][2]string
	records   []Record
}

// Open opens (creating if needed) the WAL directory: it takes the
// directory's exclusive lock (a second opener — Store, Replay, or
// another process — is rejected rather than allowed to truncate or
// interleave with a live writer), loads the snapshot if one exists,
// scans the log dropping a torn tail, and leaves the log ready for
// appends. A version 1 log or snapshot fails it, untouched.
func Open(dir string, policy SyncPolicy) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %v", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, policy: policy, lock: lock}
	if err := s.loadSnapshot(); err != nil {
		unlockDir(lock)
		return nil, err
	}
	if err := s.openLog(); err != nil {
		unlockDir(lock)
		return nil, err
	}
	return s, nil
}

// SnapshotGraph returns the snapshot's graph, or nil if the directory
// has no snapshot.
func (s *Store) SnapshotGraph() *graph.Graph { return s.snapGraph }

// SnapshotPairs returns the entity pairs stored with the snapshot (each
// {A, B} by external ID), whose closure is the fixpoint it was taken
// at, or nil without a snapshot.
func (s *Store) SnapshotPairs() [][2]string { return s.snapPairs }

// Records returns the deltas found at Open that are not covered by the
// snapshot, one Record per delta, in log order.
func (s *Store) Records() []Record { return s.records }

// Seq returns the last assigned sequence number: the open group's last
// delta, if a group is open.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Add encodes one delta's normalized ops into the open group (opening
// one if none is) and assigns the delta the next seq. It does no I/O:
// the delta is durable once Commit has written its group. It fails only
// on a closed or broken store.
func (s *Store) Add(ops []graph.DeltaOp) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addLocked(ops)
}

func (s *Store) addLocked(ops []graph.DeltaOp) (uint64, error) {
	if s.broken != nil {
		return 0, s.broken
	}
	if s.f == nil {
		return 0, fmt.Errorf("wal: store is closed")
	}
	if s.n == 0 {
		s.group = append(s.group[:0], make([]byte, groupHead)...)
	}
	s.group = encodeOps(s.group, ops)
	s.n++
	s.seq++
	return s.seq, nil
}

// Commit appends the open group as one frame, with one write and, under
// SyncAlways, one fsync, holding the store's lock for the I/O. An empty
// group writes and syncs nothing. On a failed write or fsync it rewinds
// the log to the group's start, so a failed group never leaves a
// replayable (or prefix-poisoning partial) frame behind, hands its seqs
// back (the next delta takes the failed group's base seq), and returns
// the error. If even the rewind fails, the store marks itself broken,
// refuses further appends rather than risk acknowledged groups landing
// after garbage, and returns the error that broke it: the failed group
// may still be in the log, and the next Open would replay it.
func (s *Store) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return nil
	}
	n, base, last := s.n, s.seq-uint64(s.n)+1, s.seq
	s.n = 0
	if s.f == nil {
		s.seq = base - 1
		return fmt.Errorf("wal: store closed before the commit of seqs %d..%d", base, last)
	}
	frame := sealGroup(s.group, base, n)
	var err error
	if _, werr := s.f.Write(frame); werr != nil {
		err = fmt.Errorf("wal: append of seqs %d..%d: %v", base, last, werr)
	} else if s.policy == SyncAlways {
		tSync := s.ob.FsyncNanos.Start()
		if serr := s.syncLog(); serr != nil {
			err = fmt.Errorf("wal: fsync of seqs %d..%d: %v", base, last, serr)
		}
		s.ob.FsyncNanos.ObserveSince(tSync)
	}
	if err == nil {
		s.off += int64(len(frame))
		s.ob.Records.Add(int64(n))
		s.ob.GroupSize.Observe(int64(n))
		s.ob.LogBytes.Set(s.off - int64(len(logMagic)))
		return nil
	}
	s.seq = base - 1
	s.ob.Rewinds.Inc()
	if rerr := s.rewindLog(); rerr != nil {
		s.breakLocked(fmt.Errorf("%v (rewind also failed: %v; store disabled)", err, rerr))
		return s.broken
	}
	return err
}

// syncLog fsyncs the log, or fails with the armed FailSyncs error.
func (s *Store) syncLog() error {
	if f := syncFault.Load(); f != nil {
		return f.err
	}
	return s.f.Sync()
}

// rewindLog cuts the log back to the end of its last committed group,
// or fails with the armed FailSyncs error when that fails rewinds.
func (s *Store) rewindLog() error {
	if f := syncFault.Load(); f != nil && f.rewind {
		return f.err
	}
	if err := s.f.Truncate(s.off); err != nil {
		return err
	}
	_, err := s.f.Seek(s.off, io.SeekStart)
	return err
}

// Begin is the one-delta form of Add and Commit, for a writer that
// makes each delta durable alone: it adds ops as a group of one and
// returns the delta's seq and that group's Commit. It refuses while a
// group is open.
func (s *Store) Begin(ops []graph.DeltaOp) (uint64, func() error, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n > 0 {
		return 0, nil, fmt.Errorf("wal: a group of %d deltas is open and not committed", s.n)
	}
	seq, err := s.addLocked(ops)
	if err != nil {
		return 0, nil, err
	}
	return seq, s.Commit, nil
}

// breakLocked disables the store after an unrecoverable append-path
// failure. Caller holds s.mu.
func (s *Store) breakLocked(err error) {
	s.broken = err
	if s.f != nil {
		// A close failure can carry a deferred write error; fold it into
		// the broken-store message so it surfaces to every later caller.
		if cerr := s.f.Close(); cerr != nil {
			s.broken = fmt.Errorf("%v (and closing the log failed: %v)", err, cerr)
		}
		s.f = nil
	}
}

// WriteSnapshot atomically writes a snapshot of the given graph and
// pairs covering every record appended so far, then truncates the log.
// A crash between the two steps is safe: the snapshot's sequence
// number makes the still-present records no-ops on replay. It refuses
// while a group is open.
func (s *Store) WriteSnapshot(g *graph.Graph, pairs [][2]string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publishLocked()
	return s.writeSnapshotLocked(g, pairs)
}

// WriteSeed makes g the first thing a fresh directory holds: g and
// pairs become the snapshot covering seq 1, the log stays header-only
// and the next record is seq 2 — what appending g as one record and
// compacting would leave. Fresh means seq 0 and no graph in a snapshot
// (the empty one a service that never applied anything leaves at
// shutdown has nothing to lose); any other directory is refused
// untouched. On failure nothing is acknowledged: seq is 0 again and
// neither snapshot nor temp file is left, so the directory is still
// fresh.
func (s *Store) WriteSeed(g *graph.Graph, pairs [][2]string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publishLocked()
	if s.seq != 0 || (s.snapGraph != nil && s.snapGraph.NumEntities() > 0) {
		return fmt.Errorf("wal: seed: %s is not fresh (seq %d)", s.dir, s.seq)
	}
	s.seq = 1
	err := s.writeSnapshotLocked(g, pairs)
	if err != nil {
		s.seq, s.snapSeq, s.snapBytes, s.snapTime = 0, 0, 0, time.Time{}
		for _, name := range []string{snapName + ".tmp", snapName} {
			if rerr := os.Remove(filepath.Join(s.dir, name)); rerr != nil && !os.IsNotExist(rerr) {
				err = fmt.Errorf("%v (and removing %s failed: %v)", err, name, rerr)
			}
		}
	}
	return err
}

// writeSnapshotLocked is WriteSnapshot under s.mu.
func (s *Store) writeSnapshotLocked(g *graph.Graph, pairs [][2]string) error {
	// A broken store is disabled, and a snapshot covering an open
	// group's seqs would leave its commit nothing honest to do: refuse
	// both, leaving the log untouched.
	if s.broken != nil {
		return s.broken
	}
	if s.n > 0 {
		return fmt.Errorf("wal: snapshot: a group of %d deltas is open and not committed", s.n)
	}
	h := s.ob.SnapshotNanos
	defer h.ObserveSince(h.Start())
	// The snapshot must be durably on disk before the log may shrink:
	// write + fsync the temp file (aborting on any failure), rename it
	// into place, fsync the directory so the rename survives a crash,
	// and only then truncate the log. The body streams through one
	// buffer into the file and the checksum at once.
	tmp := filepath.Join(s.dir, snapName+".tmp")
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %v", err)
	}
	sum := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(tf, sum), 64<<10)
	fmt.Fprintf(bw, "%s seq=%d\n", snapHeader, s.seq)
	g.WriteTables(bw)
	buf := binary.AppendUvarint(nil, uint64(len(pairs)))
	for _, pr := range pairs {
		buf = graph.AppendString(graph.AppendString(buf, pr[0]), pr[1])
	}
	bw.Write(buf)
	if err := bw.Flush(); err != nil {
		tf.Close()
		return fmt.Errorf("wal: snapshot write: %v", err)
	}
	if _, err := tf.Write(binary.LittleEndian.AppendUint32(nil, sum.Sum32())); err != nil {
		tf.Close()
		return fmt.Errorf("wal: snapshot write: %v", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return fmt.Errorf("wal: snapshot fsync: %v", err)
	}
	size, err := tf.Seek(0, io.SeekCurrent)
	if err != nil {
		tf.Close()
		return fmt.Errorf("wal: snapshot: %v", err)
	}
	if err := tf.Close(); err != nil {
		return fmt.Errorf("wal: snapshot close: %v", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapName)); err != nil {
		return fmt.Errorf("wal: snapshot rename: %v", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("wal: snapshot %v", err)
	}
	s.snapSeq, s.snapBytes, s.snapTime = s.seq, size, time.Now()
	if s.f != nil {
		if err := s.f.Truncate(int64(len(logMagic))); err != nil {
			return fmt.Errorf("wal: truncate: %v", err)
		}
		if _, err := s.f.Seek(int64(len(logMagic)), io.SeekStart); err != nil {
			return fmt.Errorf("wal: seek: %v", err)
		}
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("wal: fsync: %v", err)
		}
		s.off = int64(len(logMagic))
	}
	return nil
}

// syncDir fsyncs the directory, so a rename in it survives a crash.
// A directory that cannot be opened for reading is not fsynced; the
// rename itself succeeded.
func syncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer df.Close()
	if err := df.Sync(); err != nil {
		return fmt.Errorf("dir fsync: %v", err)
	}
	return nil
}

// Close closes the log file and releases the directory lock. Further
// Adds fail, and so does the commit of a group opened before Close. A
// store that a failed rewind broke fails its Close: its log may still
// hold the failed group.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	unlockDir(s.lock)
	s.lock = nil
	if s.broken != nil {
		return fmt.Errorf("wal: a failed rewind disabled the store, and %s may still log the failed group", filepath.Join(s.dir, logName))
	}
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// Replay reconstructs the graph recorded in the WAL directory: the
// snapshot graph (or an empty graph) with every logged delta applied in
// log order. It returns the graph and the records applied on top of
// the snapshot. The caller re-drives whatever it maintains over the
// graph (graphkeys.OpenMatcher re-derives the chase fixpoint and
// replays the records through the incremental engine).
func Replay(dir string) (*graph.Graph, []Record, error) {
	s, err := Open(dir, SyncNone)
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()
	g := s.SnapshotGraph()
	if g == nil {
		g = graph.New()
	}
	for _, rec := range s.Records() {
		if _, err := g.ApplyDelta(graph.NewDeltaOps(rec.Ops)); err != nil {
			return nil, nil, fmt.Errorf("wal: replay seq %d: %v", rec.Seq, err)
		}
	}
	return g, s.Records(), nil
}

// loadSnapshot reads the directory's snapshot, if it has one.
func (s *Store) loadSnapshot() error {
	path := filepath.Join(s.dir, snapName)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: %v", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("wal: %v", err)
	}
	data := make([]byte, st.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return fmt.Errorf("wal: snapshot: %v", err)
	}
	if bytes.HasPrefix(data, []byte(snapHeaderV1+" ")) {
		return fmt.Errorf("wal: %s is a version 1 snapshot (%s), which this build does not read; open the directory once with commit %s and call Snapshot to rewrite it as version 2", path, snapHeaderV1, lastV1Reader)
	}
	seq, g, pairs, err := readSnapshot(data)
	if err != nil {
		return err
	}
	s.snapSeq, s.seq = seq, seq
	s.snapGraph = g
	s.snapPairs = pairs
	s.snapBytes, s.snapTime = st.Size(), st.ModTime()
	return nil
}

// readSnapshot reads a version 3 or 2 snapshot, data being the whole file:
// the header line, the graph's tables (graph.ReadTables), the pairs — a
// count, then each pair's two IDs, length-prefixed — and the CRC-32 of
// everything before it.
func readSnapshot(data []byte) (uint64, *graph.Graph, [][2]string, error) {
	header, body, _ := bytes.Cut(data, []byte{'\n'})
	seqText, ok := strings.CutPrefix(string(header), snapHeader+" seq=")
	if !ok {
		seqText, ok = strings.CutPrefix(string(header), snapHeaderV2+" seq=")
	}
	seq, err := strconv.ParseUint(seqText, 10, 64)
	if !ok || err != nil {
		return 0, nil, nil, fmt.Errorf("wal: snapshot header %q", header)
	}
	if len(body) < 4 || crc32.ChecksumIEEE(data[:len(data)-4]) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return 0, nil, nil, fmt.Errorf("wal: snapshot: checksum mismatch")
	}
	g, rest, err := graph.ReadTables(body[:len(body)-4])
	if err != nil {
		return 0, nil, nil, fmt.Errorf("wal: snapshot graph: %v", err)
	}
	d := graph.NewDecoder(rest, "wal: snapshot pairs")
	// A pair takes at least its two lengths' bytes.
	pairs := make([][2]string, d.Count(2))
	for i := range pairs {
		pairs[i] = [2]string{d.Str(), d.Str()}
	}
	if len(d.Rest()) != 0 {
		d.Fail("%d trailing bytes", len(d.Rest()))
	}
	if err := d.Err(); err != nil {
		return 0, nil, nil, err
	}
	return seq, g, pairs, nil
}

// openLog reads the log, keeping the prefix of whole good groups and
// truncating the file after it (a torn tail), and leaves the file ready
// for appends.
func (s *Store) openLog() error {
	path := filepath.Join(s.dir, logName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %v", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: %v", err)
	}
	if st.Size() == 0 {
		if _, err := f.WriteString(logMagic); err != nil {
			f.Close()
			return fmt.Errorf("wal: write magic: %v", err)
		}
		s.f = wrapLogFile(f)
		s.off = int64(len(logMagic))
		return nil
	}
	data := make([]byte, st.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		f.Close()
		return fmt.Errorf("wal: read log: %v", err)
	}
	if !bytes.HasPrefix(data, []byte(logMagic)) {
		f.Close()
		if bytes.HasPrefix(data, []byte(logMagicV1)) {
			return fmt.Errorf("wal: %s is a version 1 log (%s), which this build does not read; open it once with commit %s to rewrite it as version 2", path, logMagicV1, lastV1Reader)
		}
		return fmt.Errorf("wal: %s is not a WAL log", path)
	}
	recs, good := readGroups(data[len(logMagic):])
	s.records = recs[:0]
	var last uint64
	for _, rec := range recs {
		// Seqs may skip (a failed v1 record left its seq unused), but
		// never repeat or go back, and no store assigns seq 0.
		if rec.Seq == 0 {
			f.Close()
			return fmt.Errorf("wal: %s logs a delta at seq 0, which no store assigns", path)
		}
		if rec.Seq <= last {
			f.Close()
			return fmt.Errorf("wal: %s logs seq %d after seq %d; a log's seqs must increase", path, rec.Seq, last)
		}
		last = rec.Seq
		s.seq = max(s.seq, rec.Seq)
		if rec.Seq > s.snapSeq {
			s.records = append(s.records, rec)
		}
	}
	end := int64(len(logMagic) + good)
	if err := f.Truncate(end); err != nil {
		f.Close()
		return fmt.Errorf("wal: truncate torn tail: %v", err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("wal: %v", err)
	}
	s.f = wrapLogFile(f)
	s.off = end
	return nil
}

// wrapLogFile applies the test-only fault-injection hook.
func wrapLogFile(f *os.File) logFile {
	if testFileHook != nil {
		return testFileHook(f)
	}
	return f
}

// nextFrame splits the frame at the front of b: its payload and the
// bytes after it. ok is false when b does not start with a whole frame
// whose checksum matches — a torn tail or garbage.
func nextFrame(b []byte) (payload, rest []byte, ok bool) {
	if len(b) < 8 {
		return nil, nil, false
	}
	// The length prefix is untrusted (a torn tail can leave garbage
	// there): it is bounded by the bytes actually left before anything
	// is sized by it.
	n := binary.LittleEndian.Uint32(b[0:4])
	if uint64(n) > uint64(len(b)-8) {
		return nil, nil, false
	}
	payload = b[8 : 8+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, nil, false
	}
	return payload, b[8+n:], true
}

// readGroups decodes the groups of a version 2 log body, stopping at the
// first frame that is short, corrupt or does not decode: it returns
// the deltas of the whole groups before it and the bytes they take.
func readGroups(body []byte) (recs []Record, good int) {
	for rest := body; ; {
		payload, next, ok := nextFrame(rest)
		if !ok {
			return recs, good
		}
		group, err := decodeGroup(payload)
		if err != nil {
			return recs, good
		}
		recs = append(recs, group...)
		good += len(rest) - len(next)
		rest = next
	}
}

// sealGroup turns an open group — groupHead bytes of room, then the
// deltas — into its frame: it writes the base seq and delta count
// right-aligned into the room, then the length and checksum before
// them, and returns the frame, a suffix of group.
func sealGroup(group []byte, base uint64, n int) []byte {
	var pre [2 * binary.MaxVarintLen64]byte
	k := binary.PutUvarint(pre[:], base)
	k += binary.PutUvarint(pre[k:], uint64(n))
	start := groupHead - 8 - k
	copy(group[start+8:], pre[:k])
	payload := group[start+8:]
	binary.LittleEndian.PutUint32(group[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(group[start+4:], crc32.ChecksumIEEE(payload))
	return group[start:]
}

// decodeGroup decodes a group's payload into its deltas, seqs base,
// base+1, …. A group is whole or nothing: any malformed byte fails it.
func decodeGroup(p []byte) ([]Record, error) {
	d := graph.NewDecoder(p, "wal: group")
	// A delta takes at least its op count's byte.
	base, n := d.Uint(), d.Count(1)
	if n == 0 || uint64(n-1) > math.MaxUint64-base {
		d.Fail("%d deltas from seq %d", n, base)
	}
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Seq: base + uint64(i), Ops: decodeOps(d)}
	}
	if len(d.Rest()) != 0 {
		d.Fail("%d trailing bytes", len(d.Rest()))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// Op encoding: uvarint op count, then per op one kind byte, one flag
// byte (bit 0: ObjectIsValue), and the kind's string fields, each
// length-prefixed (graph.AppendString).
func encodeOps(buf []byte, ops []graph.DeltaOp) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, op := range ops {
		var flags byte
		if op.ObjectIsValue {
			flags |= 1
		}
		buf = append(buf, byte(op.Kind), flags)
		switch op.Kind {
		case graph.OpAddEntity:
			buf = graph.AppendString(graph.AppendString(buf, op.ID), op.TypeName)
		case graph.OpRemoveEntity:
			buf = graph.AppendString(buf, op.ID)
		case graph.OpAddTriple, graph.OpRemoveTriple:
			buf = graph.AppendString(graph.AppendString(graph.AppendString(buf, op.Subject), op.Pred), op.Object)
		}
	}
	return buf
}

// decodeOps decodes the op list at the front of d; a malformed one
// fails d.
func decodeOps(d *graph.Decoder) []graph.DeltaOp {
	// An op takes at least its kind and flag bytes.
	ops := make([]graph.DeltaOp, d.Count(2))
	for i := range ops {
		kf := d.Take(2)
		if kf == nil {
			return nil
		}
		op := &ops[i]
		op.Kind, op.ObjectIsValue = graph.OpKind(kf[0]), kf[1]&1 != 0
		switch op.Kind {
		case graph.OpAddEntity:
			op.ID, op.TypeName = d.Str(), d.Str()
		case graph.OpRemoveEntity:
			op.ID = d.Str()
		case graph.OpAddTriple, graph.OpRemoveTriple:
			op.Subject, op.Pred, op.Object = d.Str(), d.Str(), d.Str()
		default:
			d.Fail("op kind %d unknown", kf[0])
			return nil
		}
	}
	return ops
}
