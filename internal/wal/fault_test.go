package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"graphkeys/internal/graph"
	"graphkeys/internal/testutil"
)

// failFile wraps the log file and injects failures: after okWrites
// successful Writes every further Write errors (mode "write"), or
// after okSyncs successful Syncs every further Sync errors (mode
// "sync"). Truncate/Seek/Close pass through, so the store's rewind
// path stays functional — the scenario under test is a full disk or a
// dying device, not a wedged one.
type failFile struct {
	logFile
	mu       sync.Mutex
	okWrites int
	okSyncs  int
	failW    bool
	failS    bool
	failT    bool // Truncate fails too: the rewind path dies, breaking the store
}

func (f *failFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failW && f.okWrites == 0 {
		return 0, fmt.Errorf("injected write failure")
	}
	if f.failW {
		f.okWrites--
	}
	return f.logFile.Write(p)
}

func (f *failFile) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failS && f.okSyncs == 0 {
		return fmt.Errorf("injected fsync failure")
	}
	if f.failS {
		f.okSyncs--
	}
	return f.logFile.Sync()
}

func (f *failFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failT {
		return fmt.Errorf("injected truncate failure")
	}
	return f.logFile.Truncate(size)
}

// installFailFile routes the next Open's log file through a failFile
// and returns it for arming. The hook is removed at cleanup.
func installFailFile(t *testing.T) *failFile {
	t.Helper()
	ff := &failFile{}
	testFileHook = func(f logFile) logFile {
		ff.logFile = f
		return ff
	}
	t.Cleanup(func() { testFileHook = nil })
	return ff
}

func readLog(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCommitFsyncFailure: when a group's fsync fails, its commit
// reports the error, the log rewinds to the durable prefix, and
// reopen+replay recovers exactly that prefix.
func TestCommitFsyncFailure(t *testing.T) {
	dir := t.TempDir()
	ff := installFailFile(t)
	s, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}

	// A durable prefix of two records.
	good := []graph.DeltaOp{{Kind: graph.OpAddEntity, ID: "a", TypeName: "T"}}
	for i := 0; i < 2; i++ {
		if _, err := appendOps(s, good); err != nil {
			t.Fatal(err)
		}
	}
	prefix := readLog(t, dir)

	// Arm: every further fsync fails.
	ff.mu.Lock()
	ff.failS = true
	ff.mu.Unlock()
	for _, id := range []string{"g", "h"} {
		if _, err := s.Add([]graph.DeltaOp{{Kind: graph.OpAddEntity, ID: id, TypeName: "T"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err == nil {
		t.Fatal("commit succeeded despite fsync failure")
	}
	// The log is rewound to the durable prefix...
	if got := readLog(t, dir); !bytes.Equal(got, prefix) {
		t.Fatalf("log not rewound to the durable prefix: %d bytes, want %d", len(got), len(prefix))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// ...and reopen+replay recovers exactly it.
	testFileHook = nil
	g, recs, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("replay found %d records, want the 2 durable ones", len(recs))
	}
	if _, ok := g.Entity("a"); !ok {
		t.Fatal("durable prefix lost")
	}
	for _, id := range []string{"g", "h"} {
		if _, ok := g.Entity(id); ok {
			t.Fatalf("failed group's %s leaked into the replayed graph", id)
		}
	}
}

// TestCommitWriteFailure is the mid-append variant: the group's write
// itself fails before any byte lands.
func TestCommitWriteFailure(t *testing.T) {
	dir := t.TempDir()
	ff := installFailFile(t)
	s, err := Open(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendOps(s, []graph.DeltaOp{{Kind: graph.OpAddEntity, ID: "a", TypeName: "T"}}); err != nil {
		t.Fatal(err)
	}
	prefix := readLog(t, dir)

	ff.mu.Lock()
	ff.failW = true
	ff.mu.Unlock()
	if _, err := appendOps(s, []graph.DeltaOp{{Kind: graph.OpAddEntity, ID: "b", TypeName: "T"}}); err == nil {
		t.Fatal("append with failing write succeeded")
	}
	if got := readLog(t, dir); !bytes.Equal(got, prefix) {
		t.Fatalf("log changed across a failed write: %d bytes, want %d", len(got), len(prefix))
	}

	// The store recovers once the device does: disarm, append again.
	ff.mu.Lock()
	ff.failW = false
	ff.mu.Unlock()
	if _, err := appendOps(s, []graph.DeltaOp{{Kind: graph.OpAddEntity, ID: "c", TypeName: "T"}}); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	s.Close()

	testFileHook = nil
	g, recs, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Seq != 2 {
		t.Fatalf("replay found %+v, want seqs 1 and 2 (the failed group's seq is taken again)", recs)
	}
	if _, ok := g.Entity("b"); ok {
		t.Fatal("failed record leaked into the replayed graph")
	}
	if _, ok := g.Entity("c"); !ok {
		t.Fatal("post-recovery record lost")
	}
}

// TestOneRecordInFlight pins the one-writer contract: the writer adds
// a batch's deltas to one open group and commits it before anything
// else touches the log. While a group is open, Begin and a snapshot are
// refused and the log stays as it was; Commit writes the group as one
// frame, and an empty Commit writes nothing; a failed commit hands its
// seqs back and leaves the store usable; a commit after Close errors.
// Replay finds exactly the committed deltas, at consecutive seqs.
func TestOneRecordInFlight(t *testing.T) {
	dir := t.TempDir()
	ff := installFailFile(t)
	s, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	op := func(id string) []graph.DeltaOp {
		return []graph.DeltaOp{{Kind: graph.OpAddEntity, ID: id, TypeName: "T"}}
	}
	add := func(id string, want uint64) {
		t.Helper()
		if seq, err := s.Add(op(id)); err != nil || seq != want {
			t.Fatalf("Add(%s) = seq %d, %v; want seq %d", id, seq, err, want)
		}
	}
	if _, err := appendOps(s, op("a")); err != nil {
		t.Fatal(err)
	}
	prefix := readLog(t, dir)

	add("b", 2)
	add("c", 3)
	if _, _, err := s.Begin(op("x")); err == nil {
		t.Fatal("Begin with a group open was accepted")
	}
	if err := s.WriteSnapshot(graph.New(), nil); err == nil {
		t.Fatal("WriteSnapshot with a group open was accepted")
	}
	if got := readLog(t, dir); !bytes.Equal(got, prefix) {
		t.Fatalf("an open group and the refusals changed the log: %d bytes, want %d", len(got), len(prefix))
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); !os.IsNotExist(err) {
		t.Fatalf("the refused snapshot left a file behind (stat: %v)", err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	grown := readLog(t, dir)
	if _, rest, ok := nextFrame(grown[len(prefix):]); !ok || len(rest) != 0 {
		t.Fatalf("the group of two is not one frame (ok %v, %d bytes after it)", ok, len(rest))
	}
	if err := s.Commit(); err != nil || !bytes.Equal(readLog(t, dir), grown) {
		t.Fatalf("an empty commit: %v, or it wrote", err)
	}

	// A failed commit hands its seqs back and leaves the store usable.
	ff.mu.Lock()
	ff.failS = true
	ff.mu.Unlock()
	add("d", 4)
	add("e", 5)
	if err := s.Commit(); err == nil {
		t.Fatal("commit succeeded despite fsync failure")
	}
	if s.Seq() != 3 || !bytes.Equal(readLog(t, dir), grown) {
		t.Fatalf("after the failed commit: seq %d, want 3, log rewound %v", s.Seq(), bytes.Equal(readLog(t, dir), grown))
	}
	ff.mu.Lock()
	ff.failS = false
	ff.mu.Unlock()
	seq, commit, err := s.Begin(op("f"))
	if err != nil || seq != 4 {
		t.Fatalf("Begin after a failed commit = seq %d, %v; want seq 4", seq, err)
	}
	if err := commit(); err != nil {
		t.Fatal(err)
	}

	// Close drops an open group: its commit errors.
	add("g", 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err == nil {
		t.Fatal("commit after Close succeeded")
	}

	testFileHook = nil
	_, recs, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range recs {
		got = append(got, fmt.Sprintf("%d:%s", r.Seq, r.Ops[0].ID))
	}
	if want := []string{"1:a", "2:b", "3:c", "4:f"}; !slices.Equal(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
}

// TestBrokenStoreRefusesSyncAndSnapshot: when a failed commit cannot
// even be rewound, the store breaks — and from then on Add,
// WriteSnapshot and Close must report the breakage instead of
// pretending the log is intact.
func TestBrokenStoreRefusesSyncAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	ff := installFailFile(t)
	s, err := Open(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendOps(s, []graph.DeltaOp{{Kind: graph.OpAddEntity, ID: "a", TypeName: "T"}}); err != nil {
		t.Fatal(err)
	}
	// Write fails AND the rewind fails: the store must break.
	ff.mu.Lock()
	ff.failW, ff.failT = true, true
	ff.mu.Unlock()
	if _, err := appendOps(s, []graph.DeltaOp{{Kind: graph.OpAddEntity, ID: "b", TypeName: "T"}}); err == nil {
		t.Fatal("append with failing write+rewind succeeded")
	}
	if _, err := s.Add(nil); err == nil {
		t.Fatal("Add on a broken store succeeded")
	}
	if err := s.WriteSnapshot(graph.New(), nil); err == nil {
		t.Fatal("WriteSnapshot on a broken store reported success")
	}
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), filepath.Join(dir, logName)) {
		t.Fatalf("Close of a broken store: %v, want an error naming its log", err)
	}
}

// TestFaultyFsyncLeavesGraphUnmutated is the end-to-end contract over
// the planned write path: concurrent writers stream deltas through
// ApplyDeltaLogged, serialized by the graph's writer mutex; when fsync
// starts failing, every affected Apply errors and the graph stays as it
// was, down to its node count. Once the device recovers, one more delta
// applies, and reopen+replay reconstructs the live graph exactly: the
// same text, the same node count, every entity and value at the same
// NodeID.
func TestFaultyFsyncLeavesGraphUnmutated(t *testing.T) {
	dir := t.TempDir()
	ff := installFailFile(t)
	s, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	gen := testutil.New(testutil.Config{Seed: 21, Groups: 4, PerGroup: 6})
	g := graph.New()
	hook := logHook(s)
	if _, err := g.ApplyDeltaLogged(gen.Seed(), hook); err != nil {
		t.Fatal(err)
	}
	// Each round's writers race on the writer mutex; the last one
	// allocates a fresh entity and literal.
	apply := func(round int) ([]error, []*graph.DeltaResult) {
		ds := gen.Round(round)
		id := fmt.Sprintf("fresh%d", round)
		ds = append(ds, (&graph.Delta{}).AddEntity(id, "person").AddValueTriple(id, "email", id+"@x"))
		errs := make([]error, len(ds))
		results := make([]*graph.DeltaResult, len(ds))
		var wg sync.WaitGroup
		for w, d := range ds {
			wg.Add(1)
			go func(w int, d *graph.Delta) {
				defer wg.Done()
				results[w], errs[w] = g.ApplyDeltaLogged(d, hook)
			}(w, d)
		}
		wg.Wait()
		return errs, results
	}
	// Phase 1: a round of concurrent writers lands durably.
	errs, _ := apply(0)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	var durable bytes.Buffer
	if err := g.WriteText(&durable); err != nil {
		t.Fatal(err)
	}
	nodes := g.NumNodes()

	// Phase 2: the device dies mid-fsync. Every concurrent writer must
	// observe the error and the graph must not move.
	ff.mu.Lock()
	ff.failS = true
	ff.mu.Unlock()
	errs, results := apply(1)
	for w, err := range errs {
		// Only a delta that coalesced to a no-op (and so was never
		// logged) may succeed with a dead device.
		if err == nil && (results[w] == nil || !results[w].Empty()) {
			t.Fatalf("writer %d mutated the graph despite fsync failure", w)
		}
	}
	if errs[len(errs)-1] == nil {
		t.Fatal("the allocating writer did not exercise the failing fsync")
	}
	var after bytes.Buffer
	if err := g.WriteText(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(durable.Bytes(), after.Bytes()) {
		t.Fatal("failed commits mutated the graph")
	}
	if g.NumNodes() != nodes {
		t.Fatalf("failed commits changed the node count: %d -> %d", nodes, g.NumNodes())
	}

	// Phase 3: the device recovers; one more allocating delta lands.
	ff.mu.Lock()
	ff.failS = false
	ff.mu.Unlock()
	if _, err := g.ApplyDeltaLogged((&graph.Delta{}).AddEntity("late", "person").AddValueTriple("late", "email", "late@x"), hook); err != nil {
		t.Fatalf("apply after recovery: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen + replay reconstructs the live graph, node for node.
	testFileHook = nil
	rg, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	var live, replayed bytes.Buffer
	if err := g.WriteText(&live); err != nil {
		t.Fatal(err)
	}
	if err := rg.WriteText(&replayed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), replayed.Bytes()) {
		t.Fatalf("replay diverges from the live graph:\nreplayed:\n%s\nlive:\n%s", replayed.String(), live.String())
	}
	if g.NumNodes() != rg.NumNodes() {
		t.Fatalf("node count: live %d, replayed %d", g.NumNodes(), rg.NumNodes())
	}
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		var rn graph.NodeID
		var ok bool
		switch {
		case g.IsEntity(id):
			rn, ok = rg.Entity(g.Label(id))
		case g.IsValue(id):
			rn, ok = rg.Value(g.Label(id))
		default:
			continue
		}
		if !ok || rn != id {
			t.Fatalf("%q is node %d live, %d (found %v) replayed", g.Label(id), id, rn, ok)
		}
	}
}
