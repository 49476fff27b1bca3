// Package wal is the durable delta log of the write path: an
// append-only file of length-prefixed, CRC-protected binary records,
// each one the *normalized* op list of a planned delta (see
// internal/graph/plan.go — the write-ahead hook hands records over in
// plan order, which is the order the deltas serialize in), plus a
// snapshot file that compacts the log.
//
// A record stores the delta at name level (external entity IDs, value
// literals, predicate names), so replaying the records in log order
// against the snapshot graph reconstructs the store byte-identically:
// normalized records are exact net effects, and node IDs are assigned
// at reservation, under the plan mutex, in the same order the records
// enter the log — so even though concurrent group-commit deltas may
// lower out of order, reservation order is plan order is log order,
// and a sequential replay allocates identically.
//
// The snapshot carries the graph in the canonical text format plus the
// matcher's identified pairs at the snapshot point; the pairs let an
// opener cross-check that re-deriving the fixpoint over the snapshot
// graph reproduces the state the snapshot was taken from. A snapshot
// records the sequence number it covers; records with seq <= that are
// skipped on replay, which closes the crash window between snapshot
// rename and log truncation.
//
// Torn tails are expected: a crash mid-append leaves a short or
// CRC-broken final record, which Open drops by truncating the file at
// the last good offset.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"graphkeys/internal/graph"
)

// SyncPolicy selects the append durability of the log.
type SyncPolicy int

const (
	// SyncNone appends without fsync; the OS decides when bytes reach
	// the disk. A crash may lose the most recent records but never
	// corrupts the prefix.
	SyncNone SyncPolicy = iota
	// SyncAlways fsyncs after every appended record.
	SyncAlways
)

const (
	logName      = "wal.log"
	snapName     = "snapshot"
	logMagic     = "GKWALOG1"
	snapHeader   = "#gkwal-snapshot v1"
	snapGraphSep = "#graph"
)

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

// pendingRec is one encoded record buffered for the next group flush.
type pendingRec struct {
	seq uint64
	rec []byte // header + payload
}

// Store is an open WAL directory. Append and Begin are safe for
// concurrent use; the loader methods (SnapshotGraph, SnapshotPairs,
// Records) report the state found at Open.
type Store struct {
	dir    string
	policy SyncPolicy

	mu   sync.Mutex
	cond *sync.Cond // group-commit waiters (commitWait, quiesce)
	f    logFile
	lock *os.File // exclusive dir lock (see lockDir)
	off  int64    // current append offset (end of the good prefix)
	seq  uint64   // last assigned sequence number

	// Group-commit state: Begin buffers encoded records here in seq
	// order; the first commit caller to find no flush in progress
	// becomes the leader, writes every buffered record as one chunk
	// and fsyncs once per policy; the others wait. durable is the last
	// seq the log file holds (synced under SyncAlways); failed maps
	// the seqs of a failed chunk to its error, so every waiter of the
	// group observes it; broken disables the store when a failed chunk
	// cannot even be rewound.
	pending    []pendingRec
	committing bool
	durable    uint64
	failed     map[uint64]error
	broken     error
	// maxGroup caps how many records one flush takes; it is
	// DefaultGroupLimit (a field so a test can shrink it).
	maxGroup int

	// ob is the optional instrument bundle (see obs.go).
	ob atomic.Pointer[Obs]

	snapSeq   uint64
	snapGraph *graph.Graph
	snapPairs [][2]string
	records   []Record
}

// Open opens (creating if needed) the WAL directory: it takes the
// directory's exclusive lock (a second opener — Store, Replay, or
// another process — is rejected rather than allowed to truncate or
// interleave with a live writer), loads the snapshot if one exists,
// scans the log dropping a torn tail, and leaves the log ready for
// appends.
func Open(dir string, policy SyncPolicy) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %v", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, policy: policy, lock: lock, failed: make(map[uint64]error), maxGroup: DefaultGroupLimit}
	s.cond = sync.NewCond(&s.mu)
	if err := s.loadSnapshot(); err != nil {
		unlockDir(lock)
		return nil, err
	}
	if err := s.openLog(); err != nil {
		unlockDir(lock)
		return nil, err
	}
	s.durable = s.seq // everything found on disk is already durable
	return s, nil
}

// SnapshotGraph returns the snapshot's graph, or nil if the directory
// has no snapshot.
func (s *Store) SnapshotGraph() *graph.Graph { return s.snapGraph }

// SnapshotPairs returns the identified entity pairs stored with the
// snapshot (each {A, B} by external ID), or nil without a snapshot.
func (s *Store) SnapshotPairs() [][2]string { return s.snapPairs }

// Records returns the log records found at Open that are not covered
// by the snapshot, in log order.
func (s *Store) Records() []Record { return s.records }

// Seq returns the last assigned sequence number.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Append encodes, appends and commits one record, fsyncing per the
// policy, and returns its sequence number. It is Begin followed
// immediately by the commit — callers that can overlap their
// durability wait with other writers (the planned write path) use
// Begin directly and group-commit instead.
func (s *Store) Append(ops []graph.DeltaOp) (uint64, error) {
	seq, commit, err := s.Begin(ops)
	if err != nil {
		return 0, err
	}
	if err := commit(); err != nil {
		return 0, err
	}
	return seq, nil
}

// Begin assigns the next sequence number to the record and buffers its
// encoding, without touching the file: the returned commit function
// performs (or joins) the group flush and blocks until this record is
// durably appended per the policy, returning the flush error if its
// group failed. Buffering order is seq order, so callers that need log
// order to match an external serialization (the graph's plan order)
// call Begin inside that serialization and commit outside it — one
// fsync then covers every record buffered by concurrent planners
// (group commit: a single leader writes the chunk and fsyncs, the
// other waiters just observe the outcome).
//
// On a failed flush the log is rewound to the group's start, so an
// aborted delta never leaves a replayable (or prefix-poisoning
// partial) record behind; every commit of the failed group reports the
// error, and later groups append from the rewound offset. If even the
// rewind fails, the store marks itself broken and refuses further
// appends rather than risk acknowledged records landing after garbage.
func (s *Store) Begin(ops []graph.DeltaOp) (uint64, func() error, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return 0, nil, s.broken
	}
	if s.f == nil {
		return 0, nil, fmt.Errorf("wal: store is closed")
	}
	s.seq++
	seq := s.seq
	payload := encodePayload(seq, ops)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	s.pending = append(s.pending, pendingRec{seq: seq, rec: append(hdr[:], payload...)})
	return seq, func() error { return s.commitWait(seq) }, nil
}

// DefaultGroupLimit is the group-commit cap: one flush takes at most
// this many records, so a sustained burst of writers amortizes its
// fsyncs without any single group —
// and therefore any single commit's wait, or any single rewind on a
// failed flush — growing unboundedly. Committers whose records are
// left behind lead (or join) the next flush immediately; no waiting
// is introduced, only the chunk is bounded.
const DefaultGroupLimit = 256

// commitWait blocks until seq's group flush resolves, leading the
// flush itself when no other committer is.
func (s *Store) commitWait(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if err, ok := s.failed[seq]; ok {
			delete(s.failed, seq)
			return err
		}
		if seq <= s.durable {
			return nil
		}
		if s.broken != nil {
			return s.broken
		}
		if s.f == nil {
			return fmt.Errorf("wal: store closed before commit of seq %d", seq)
		}
		if s.committing {
			s.cond.Wait()
			continue
		}
		s.flushGroupLocked()
	}
}

// flushGroupLocked writes the pending records — at most maxGroup of
// them; any excess stays buffered, in order, for the flush that
// immediately follows — as one chunk and syncs once per policy.
// Caller holds s.mu; the lock is released during the file I/O so new
// Begins keep buffering the next group, and reacquired to publish the
// outcome. On return the flush (if any) has fully resolved and
// s.committing is false again.
func (s *Store) flushGroupLocked() {
	if len(s.pending) == 0 {
		return
	}
	group := s.pending
	if len(group) > s.maxGroup {
		// Splitting the slice is safe: later Begins append past the
		// remainder's length, never into the flushed prefix.
		group = group[:s.maxGroup]
		s.pending = s.pending[s.maxGroup:]
	} else {
		s.pending = nil
	}
	s.committing = true
	n := 0
	for _, pr := range group {
		n += len(pr.rec)
	}
	chunk := make([]byte, 0, n)
	for _, pr := range group {
		chunk = append(chunk, pr.rec...)
	}
	f := s.f
	ob := s.ob.Load()
	s.mu.Unlock()
	ob.groupSize().Observe(int64(len(group)))
	var ferr error
	if _, err := f.Write(chunk); err != nil {
		ferr = fmt.Errorf("wal: append: %v", err)
	} else if s.policy == SyncAlways {
		tSync := ob.fsyncNanos().Start()
		if err := f.Sync(); err != nil {
			ferr = fmt.Errorf("wal: fsync: %v", err)
		}
		ob.fsyncNanos().ObserveSince(tSync)
	}
	s.mu.Lock()
	s.committing = false
	if ferr == nil {
		s.off += int64(len(chunk))
		s.durable = group[len(group)-1].seq
		ob.records().Add(int64(len(group)))
	} else {
		ob.rewinds().Inc()
		// The whole group fails: rewind the file to the group start so
		// no partial record poisons the prefix, and route the error to
		// every waiter of the group. Later groups (already buffering in
		// s.pending) append from the rewound offset; their seqs leave a
		// gap in the log, which replay tolerates (records carry their
		// seq and order is all that matters).
		for _, pr := range group {
			s.failed[pr.seq] = ferr
		}
		if terr := s.f.Truncate(s.off); terr != nil {
			s.breakLocked(fmt.Errorf("%v (rewind also failed: %v; store disabled)", ferr, terr))
		} else if _, serr := s.f.Seek(s.off, io.SeekStart); serr != nil {
			s.breakLocked(fmt.Errorf("%v (rewind also failed: %v; store disabled)", ferr, serr))
		}
	}
	s.cond.Broadcast()
}

// breakLocked disables the store after an unrecoverable append-path
// failure. Caller holds s.mu.
func (s *Store) breakLocked(err error) {
	s.broken = fmt.Errorf("wal: %v", err)
	if s.f != nil {
		// A close failure can carry a deferred write error; fold it into
		// the broken-store message so it surfaces to every later caller.
		if cerr := s.f.Close(); cerr != nil {
			s.broken = fmt.Errorf("wal: %v (and closing the log failed: %v)", err, cerr)
		}
		s.f = nil
	}
}

// quiesceLocked waits out any in-progress flush and flushes whatever
// is still buffered, so the log file is the complete record of every
// Begin so far. Caller holds s.mu.
func (s *Store) quiesceLocked() {
	for s.committing {
		s.cond.Wait()
	}
	for len(s.pending) > 0 && s.broken == nil && s.f != nil {
		s.flushGroupLocked()
		for s.committing {
			s.cond.Wait()
		}
	}
}

// Sync flushes the log to disk regardless of policy. On a broken
// store it reports the breakage: buffered records may have been
// dropped, so pretending the log is flushed would be a lie.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.quiesceLocked()
	if s.broken != nil {
		return s.broken
	}
	if s.f == nil {
		return nil
	}
	return s.f.Sync()
}

// WriteSnapshot atomically writes a snapshot of the given graph and
// pairs covering every record appended so far, then truncates the log.
// A crash between the two steps is safe: the snapshot's sequence
// number makes the still-present records no-ops on replay.
func (s *Store) WriteSnapshot(g *graph.Graph, pairs [][2]string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	if s.seq != 0 || (s.snapGraph != nil && s.snapGraph.NumEntities() > 0) {
		return fmt.Errorf("wal: seed: %s is not fresh (seq %d)", s.dir, s.seq)
	}
	s.seq = 1
	err := s.writeSnapshotLocked(g, pairs)
	if err != nil {
		s.seq, s.snapSeq, s.durable = 0, 0, 0
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
	s.quiesceLocked()
	h := s.ob.Load().snapshotNanos()
	defer h.ObserveSince(h.Start())
	// A broken store may hold buffered records quiesce could not
	// flush; writing a snapshot that covers their sequence numbers
	// would mark them durable (and let their pending commits succeed)
	// even though they never reached the disk. Refuse instead.
	if s.broken != nil {
		return s.broken
	}
	// The snapshot is line/tab-structured text, which cannot represent
	// entity IDs, type names or predicates containing tabs or newlines
	// (the binary log records them fine). Refuse rather than write a
	// snapshot that can never be reopened — the state stays replayable
	// from the log, which this method has not yet truncated.
	if kind, name := unrepresentable(g); kind != "" {
		return fmt.Errorf("wal: snapshot: %s %q contains a tab or newline, unrepresentable in the snapshot text format; state remains replayable from the log", kind, name)
	}
	// The graph text format is triples-only, so entities without any
	// incident triple (never attached, or stripped by removals) would
	// be lost by compaction even though the log recorded them; they
	// ride along as explicit id:Type lines.
	var isolated []string
	g.EachEntity(func(n graph.NodeID) {
		if g.Degree(n) == 0 {
			isolated = append(isolated, g.Label(n)+":"+g.TypeName(g.TypeOf(n)))
		}
	})
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s seq=%d pairs=%d isolated=%d\n", snapHeader, s.seq, len(pairs), len(isolated))
	for _, pr := range pairs {
		fmt.Fprintf(&buf, "%s\t%s\n", pr[0], pr[1])
	}
	for _, e := range isolated {
		fmt.Fprintln(&buf, e)
	}
	fmt.Fprintln(&buf, snapGraphSep)
	if err := g.WriteText(&buf); err != nil {
		return fmt.Errorf("wal: snapshot graph: %v", err)
	}
	// The snapshot must be durably on disk before the log may shrink:
	// write + fsync the temp file (aborting on any failure), rename it
	// into place, fsync the directory so the rename survives a crash,
	// and only then truncate the log.
	tmp := filepath.Join(s.dir, snapName+".tmp")
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %v", err)
	}
	if _, err := tf.Write(buf.Bytes()); err != nil {
		tf.Close()
		return fmt.Errorf("wal: snapshot write: %v", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return fmt.Errorf("wal: snapshot fsync: %v", err)
	}
	if err := tf.Close(); err != nil {
		return fmt.Errorf("wal: snapshot close: %v", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapName)); err != nil {
		return fmt.Errorf("wal: snapshot rename: %v", err)
	}
	if df, err := os.Open(s.dir); err == nil {
		if serr := df.Sync(); serr != nil {
			df.Close()
			return fmt.Errorf("wal: snapshot dir fsync: %v", serr)
		}
		df.Close()
	}
	s.snapSeq = s.seq
	s.durable = s.seq
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

// Close flushes any buffered records, closes the log file and releases
// the directory lock. Further Appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.quiesceLocked()
	unlockDir(s.lock)
	s.lock = nil
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	s.cond.Broadcast()
	return err
}

// unrepresentable scans the graph's names for characters the
// line/tab-structured snapshot cannot carry, returning the kind of
// name that offends ("" if none) and the name itself. Value literals
// are exempt: the text format Go-quotes them.
func unrepresentable(g *graph.Graph) (kind, name string) {
	bad := func(s string) bool { return strings.ContainsAny(s, "\t\n") }
	g.EachEntity(func(n graph.NodeID) {
		if kind == "" && bad(g.Label(n)) {
			kind, name = "entity ID", g.Label(n)
		}
		if kind == "" && bad(g.TypeName(g.TypeOf(n))) {
			kind, name = "type name", g.TypeName(g.TypeOf(n))
		}
	})
	if kind == "" {
		g.EachTriple(func(s graph.NodeID, p graph.PredID, o graph.NodeID) {
			if kind == "" && bad(g.PredName(p)) {
				kind, name = "predicate", g.PredName(p)
			}
		})
	}
	return kind, name
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
	br := bufio.NewReader(f)
	header, err := br.ReadString('\n')
	if err != nil {
		return fmt.Errorf("wal: snapshot header: %v", err)
	}
	var seq uint64
	var nPairs, nIsolated int
	if _, err := fmt.Sscanf(strings.TrimSpace(header), snapHeader+" seq=%d pairs=%d isolated=%d", &seq, &nPairs, &nIsolated); err != nil {
		return fmt.Errorf("wal: snapshot header %q: %v", strings.TrimSpace(header), err)
	}
	pairs := make([][2]string, 0, nPairs)
	for i := 0; i < nPairs; i++ {
		line, err := br.ReadString('\n')
		if err != nil {
			return fmt.Errorf("wal: snapshot pairs: %v", err)
		}
		a, b, ok := strings.Cut(strings.TrimRight(line, "\n"), "\t")
		if !ok {
			return fmt.Errorf("wal: snapshot pair line %q", line)
		}
		pairs = append(pairs, [2]string{a, b})
	}
	isolated := make([]string, 0, nIsolated)
	for i := 0; i < nIsolated; i++ {
		line, err := br.ReadString('\n')
		if err != nil {
			return fmt.Errorf("wal: snapshot isolated entities: %v", err)
		}
		isolated = append(isolated, strings.TrimRight(line, "\n"))
	}
	sep, err := br.ReadString('\n')
	if err != nil || strings.TrimSpace(sep) != snapGraphSep {
		return fmt.Errorf("wal: snapshot graph separator missing")
	}
	g, err := graph.ParseText(br)
	if err != nil {
		return fmt.Errorf("wal: snapshot graph: %v", err)
	}
	for _, tok := range isolated {
		// As in the graph text format, the LAST colon splits id from
		// type (entity IDs may contain colons).
		i := strings.LastIndexByte(tok, ':')
		if i <= 0 || i == len(tok)-1 {
			return fmt.Errorf("wal: snapshot isolated entity %q", tok)
		}
		if _, err := g.AddEntity(tok[:i], tok[i+1:]); err != nil {
			return fmt.Errorf("wal: snapshot isolated entity %q: %v", tok, err)
		}
	}
	s.snapSeq, s.seq = seq, seq
	s.snapGraph = g
	s.snapPairs = pairs
	return nil
}

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
	magic := make([]byte, len(logMagic))
	if _, err := io.ReadFull(f, magic); err != nil || string(magic) != logMagic {
		f.Close()
		return fmt.Errorf("wal: %s is not a WAL log", path)
	}
	// Scan records, keeping the good prefix; stop at the first short or
	// corrupt record and truncate there (torn tail).
	good := int64(len(logMagic))
	br := bufio.NewReader(f)
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			break
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		// The length prefix is untrusted (a torn tail can leave garbage
		// there): bound it by the bytes actually left in the file before
		// allocating, or a corrupt header could demand gigabytes on the
		// very recovery path meant to survive it.
		if int64(n) > st.Size()-good-8 {
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			break
		}
		if crc32.ChecksumIEEE(payload) != want {
			break
		}
		rec, err := decodePayload(payload)
		if err != nil {
			break
		}
		good += 8 + int64(n)
		if rec.Seq > s.seq {
			s.seq = rec.Seq
		}
		if rec.Seq > s.snapSeq {
			s.records = append(s.records, rec)
		}
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return fmt.Errorf("wal: truncate torn tail: %v", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("wal: %v", err)
	}
	s.f = wrapLogFile(f)
	s.off = good
	return nil
}

// wrapLogFile applies the test-only fault-injection hook.
func wrapLogFile(f *os.File) logFile {
	if testFileHook != nil {
		return testFileHook(f)
	}
	return f
}

// Payload encoding: uvarint seq, uvarint op count, then per op one
// kind byte, one flag byte (bit 0: ObjectIsValue), and the kind's
// string fields as uvarint-length-prefixed bytes.
func encodePayload(seq uint64, ops []graph.DeltaOp) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	str := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	for _, op := range ops {
		buf = append(buf, byte(op.Kind))
		var flags byte
		if op.ObjectIsValue {
			flags |= 1
		}
		buf = append(buf, flags)
		switch op.Kind {
		case graph.OpAddEntity:
			str(op.ID)
			str(op.TypeName)
		case graph.OpRemoveEntity:
			str(op.ID)
		case graph.OpAddTriple, graph.OpRemoveTriple:
			str(op.Subject)
			str(op.Pred)
			str(op.Object)
		}
	}
	return buf
}

func decodePayload(payload []byte) (Record, error) {
	r := bytes.NewReader(payload)
	fail := func(what string) (Record, error) {
		return Record{}, fmt.Errorf("wal: record %s", what)
	}
	seq, err := binary.ReadUvarint(r)
	if err != nil {
		return fail("seq")
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return fail("op count")
	}
	if n > uint64(len(payload)) {
		return fail("op count out of range")
	}
	str := func() (string, error) {
		l, err := binary.ReadUvarint(r)
		if err != nil || l > uint64(r.Len()) {
			return "", fmt.Errorf("bad string")
		}
		b := make([]byte, l)
		if _, err := io.ReadFull(r, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	rec := Record{Seq: seq, Ops: make([]graph.DeltaOp, 0, n)}
	for i := uint64(0); i < n; i++ {
		kind, err := r.ReadByte()
		if err != nil {
			return fail("op kind")
		}
		flags, err := r.ReadByte()
		if err != nil {
			return fail("op flags")
		}
		op := graph.DeltaOp{Kind: graph.OpKind(kind), ObjectIsValue: flags&1 != 0}
		switch op.Kind {
		case graph.OpAddEntity:
			if op.ID, err = str(); err == nil {
				op.TypeName, err = str()
			}
		case graph.OpRemoveEntity:
			op.ID, err = str()
		case graph.OpAddTriple, graph.OpRemoveTriple:
			if op.Subject, err = str(); err == nil {
				if op.Pred, err = str(); err == nil {
					op.Object, err = str()
				}
			}
		default:
			return fail("kind unknown")
		}
		if err != nil {
			return fail("fields")
		}
		rec.Ops = append(rec.Ops, op)
	}
	if r.Len() != 0 {
		return fail("trailing bytes")
	}
	return rec, nil
}
