// Package wal is the durable delta log of the write path: an
// append-only file of length-prefixed, CRC-protected binary records,
// each one the *normalized* op list of a planned delta (see
// internal/graph/plan.go — the write-ahead hook hands records over in
// the order the deltas apply in), plus a snapshot file that compacts
// the log.
//
// A record stores the delta at name level (external entity IDs, value
// literals, predicate names), so replaying the records in log order
// against the snapshot graph reconstructs the store byte-identically:
// normalized records are exact net effects, and the graph applies its
// deltas one at a time in log order, allocating a delta's nodes only
// after its commit succeeded — so a sequential replay allocates the
// same node IDs.
//
// The snapshot (version 2) is one text header line,
// "#gkwal-snapshot v2 seq=N", then binary: the graph's own tables
// (graph.WriteTables — interned names, the label heap, the node table,
// the ID triples), the matcher's identified pairs at the snapshot point
// as external IDs, and a CRC-32 of everything before it. A load reads
// the tables back at their final sizes instead of parsing text, and
// every name round-trips, whatever bytes it holds. The pairs let an
// opener cross-check that re-deriving the fixpoint over the snapshot
// graph reproduces the state the snapshot was taken from. A snapshot
// records the sequence number it covers; records with seq <= that are
// skipped on replay, which closes the crash window between snapshot
// rename and log truncation. A version 1 snapshot (text; see
// snapshot_v1.go) still opens.
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
	"strconv"
	"strings"
	"sync"
	"time"

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
	logName    = "wal.log"
	snapName   = "snapshot"
	logMagic   = "GKWALOG1"
	snapHeader = "#gkwal-snapshot v2"
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

// Store is an open WAL directory with one writer: a record is begun and
// committed before the next is begun (the graph's writer mutex already
// serializes every delta that way). Its methods are safe for concurrent
// use; the loader methods (SnapshotGraph, SnapshotPairs, Records)
// report the state found at Open.
type Store struct {
	dir    string
	policy SyncPolicy

	mu   sync.Mutex
	f    logFile
	lock *os.File // exclusive dir lock (see lockDir)
	off  int64    // current append offset (end of the good prefix)
	seq  uint64   // last assigned sequence number

	// begun is the encoded record (header + payload) of seq whose
	// commit has not run yet, or nil. broken disables the store when a
	// failed append cannot even be rewound.
	begun  []byte
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
// appends.
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

// Begin assigns the next sequence number to the record and encodes it,
// without touching the file; the returned commit writes the record and
// fsyncs it per the policy. Begin refuses while an earlier record's
// commit has not run: the log has one writer, which begins and commits
// one record at a time (the graph's write path does both under its
// writer mutex), so log order is the order of the Begins.
//
// On a failed write or fsync the commit rewinds the log to the record's
// start, so an aborted delta never leaves a replayable (or
// prefix-poisoning partial) record behind, and returns the error; the
// next record appends from the rewound offset, leaving a gap in the
// seqs that replay tolerates (records carry their seq and order is all
// that matters). If even the rewind fails, the store marks itself
// broken and refuses further appends rather than risk acknowledged
// records landing after garbage.
func (s *Store) Begin(ops []graph.DeltaOp) (uint64, func() error, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return 0, nil, s.broken
	}
	if s.f == nil {
		return 0, nil, fmt.Errorf("wal: store is closed")
	}
	if s.begun != nil {
		return 0, nil, fmt.Errorf("wal: record %d is begun and not committed", s.seq)
	}
	s.seq++
	seq := s.seq
	payload := encodePayload(seq, ops)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	s.begun = append(hdr[:], payload...)
	return seq, func() error { return s.commit(seq) }, nil
}

// commit appends the begun record seq and syncs it per the policy,
// holding s.mu for the whole I/O.
func (s *Store) commit(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.begun
	if rec == nil || seq != s.seq {
		return fmt.Errorf("wal: commit of seq %d, which is not the begun record", seq)
	}
	s.begun = nil
	if s.f == nil {
		return fmt.Errorf("wal: store closed before commit of seq %d", seq)
	}
	var err error
	if _, werr := s.f.Write(rec); werr != nil {
		err = fmt.Errorf("wal: append: %v", werr)
	} else if s.policy == SyncAlways {
		tSync := s.ob.FsyncNanos.Start()
		if serr := s.f.Sync(); serr != nil {
			err = fmt.Errorf("wal: fsync: %v", serr)
		}
		s.ob.FsyncNanos.ObserveSince(tSync)
	}
	if err == nil {
		s.off += int64(len(rec))
		s.ob.Records.Inc()
		s.ob.LogBytes.Set(s.off - int64(len(logMagic)))
		return nil
	}
	s.ob.Rewinds.Inc()
	if terr := s.f.Truncate(s.off); terr != nil {
		s.breakLocked(fmt.Errorf("%v (rewind also failed: %v; store disabled)", err, terr))
	} else if _, serr := s.f.Seek(s.off, io.SeekStart); serr != nil {
		s.breakLocked(fmt.Errorf("%v (rewind also failed: %v; store disabled)", err, serr))
	}
	return err
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

// WriteSnapshot atomically writes a snapshot of the given graph and
// pairs covering every record appended so far, then truncates the log.
// A crash between the two steps is safe: the snapshot's sequence
// number makes the still-present records no-ops on replay. It refuses
// while a record is begun and not committed.
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
	// A broken store is disabled, and a snapshot covering a begun
	// record's seq would leave its commit nothing honest to do: refuse
	// both, leaving the log untouched.
	if s.broken != nil {
		return s.broken
	}
	if s.begun != nil {
		return fmt.Errorf("wal: snapshot: record %d is begun and not committed", s.seq)
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
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(pairs)))
	for _, pr := range pairs {
		for _, id := range pr {
			buf = binary.AppendUvarint(buf, uint64(len(id)))
			buf = append(buf, id...)
		}
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
	if df, err := os.Open(s.dir); err == nil {
		if serr := df.Sync(); serr != nil {
			df.Close()
			return fmt.Errorf("wal: snapshot dir fsync: %v", serr)
		}
		df.Close()
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

// Close closes the log file and releases the directory lock. Further
// Begins fail, and so does the commit of a record begun before Close.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	unlockDir(s.lock)
	s.lock = nil
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

// loadSnapshot reads the directory's snapshot, if it has one, picking
// the reader by its header line.
func (s *Store) loadSnapshot() error {
	f, err := os.Open(filepath.Join(s.dir, snapName))
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
	header, body, ok := bytes.Cut(data, []byte{'\n'})
	if !ok {
		return fmt.Errorf("wal: snapshot header: no newline")
	}
	var seq uint64
	var g *graph.Graph
	var pairs [][2]string
	if bytes.HasPrefix(header, []byte(snapHeader+" ")) {
		seq, g, pairs, err = readSnapshot(data)
	} else {
		seq, g, pairs, err = readSnapshotV1(string(header), bufio.NewReader(bytes.NewReader(body)), len(body))
	}
	if err != nil {
		return err
	}
	s.snapSeq, s.seq = seq, seq
	s.snapGraph = g
	s.snapPairs = pairs
	s.snapBytes, s.snapTime = st.Size(), st.ModTime()
	return nil
}

// readSnapshot reads a version 2 snapshot, data being the whole file:
// the header line, the graph's tables (graph.ReadTables), the pairs — a
// count, then each pair's two IDs, length-prefixed — and the CRC-32 of
// everything before it.
func readSnapshot(data []byte) (uint64, *graph.Graph, [][2]string, error) {
	if len(data) < 4 || crc32.ChecksumIEEE(data[:len(data)-4]) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return 0, nil, nil, fmt.Errorf("wal: snapshot: checksum mismatch")
	}
	header, body, _ := bytes.Cut(data[:len(data)-4], []byte{'\n'})
	seqText, ok := strings.CutPrefix(string(header), snapHeader+" seq=")
	seq, err := strconv.ParseUint(seqText, 10, 64)
	if !ok || err != nil {
		return 0, nil, nil, fmt.Errorf("wal: snapshot header %q", header)
	}
	g, rest, err := graph.ReadTables(body)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("wal: snapshot graph: %v", err)
	}
	bad := fmt.Errorf("wal: snapshot pairs: malformed")
	n, k := binary.Uvarint(rest)
	// A pair takes at least two bytes, so the count is bounded by the
	// bytes left before anything is sized by it.
	if k <= 0 || n > uint64(len(rest)-k)/2 {
		return 0, nil, nil, bad
	}
	rest = rest[k:]
	str := func() (string, bool) {
		l, k := binary.Uvarint(rest)
		if k <= 0 || l > uint64(len(rest)-k) {
			return "", false
		}
		s := string(rest[k : k+int(l)])
		rest = rest[k+int(l):]
		return s, true
	}
	pairs := make([][2]string, n)
	for i := range pairs {
		a, okA := str()
		b, okB := str()
		if !okA || !okB {
			return 0, nil, nil, bad
		}
		pairs[i] = [2]string{a, b}
	}
	if len(rest) != 0 {
		return 0, nil, nil, bad
	}
	return seq, g, pairs, nil
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
