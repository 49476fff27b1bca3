package graphkeys

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/oracle"
	"graphkeys/internal/testutil"
	"graphkeys/internal/wal"
)

// logRecords decodes the deltas of the log in dir, read from a copy
// so that the matcher holding dir may stay open.
func logRecords(t *testing.T, dir string) []wal.Record {
	t.Helper()
	s, err := wal.Open(copyWALDir(t, dir), wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	return s.Records()
}

// wrapDelta lifts a generated graph-level delta into the public Delta
// the Matcher applies; wrapDeltas lifts a whole batch. The shared
// testutil generator works at the graph level so the inc, plan and WAL
// tests can drive it too.
func wrapDelta(gd *graph.Delta) *Delta { return &Delta{d: *gd} }

func wrapDeltas(gds []*graph.Delta) []*Delta {
	out := make([]*Delta, len(gds))
	for i, gd := range gds {
		out[i] = wrapDelta(gd)
	}
	return out
}

// batchFixture builds the grouped fixture of the shared generator.
func batchFixture(t *testing.T, gen *testutil.Generator) (*Graph, *KeySet) {
	t.Helper()
	g := NewGraph()
	if _, err := g.g.ApplyDelta(gen.Seed()); err != nil {
		t.Fatal(err)
	}
	ks, err := ParseKeys(gen.Keys())
	if err != nil {
		t.Fatal(err)
	}
	return g, ks
}

// TestApplyBatchMatchesSerialApplication: ApplyBatch over a dependent
// stream, with readers hammering the matcher, must end in exactly the
// state serial per-delta application in the same order reaches. Each
// batch spans several rounds of the generator, so it holds several
// deltas of every group; at Overlap 0.5 half the deltas also mutate
// the next group, and entity churn removes and re-adds persons, so the
// order of a batch's deltas decides the result. Run under -race by the
// CI race job.
func TestApplyBatchMatchesSerialApplication(t *testing.T) {
	const groups = 8
	const perGroup = 4
	const batches = 8
	const perBatch = 6 * groups

	gen := testutil.New(testutil.Config{
		Seed:        3,
		Groups:      groups,
		PerGroup:    perGroup,
		Overlap:     0.5,
		EntityChurn: true,
		Coalesce:    true,
	})
	stream := gen.Sequence(batches * perBatch)
	g, ks := batchFixture(t, gen)
	m, err := NewMatcher(g, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				a := fmt.Sprintf("g%d-p%d", (r+i)%groups, i%perGroup)
				b := fmt.Sprintf("g%d-p%d", (r+i)%groups, (i+2)%perGroup)
				_ = m.Same(a, b)
				if i%9 == 0 {
					_ = m.Result()
				}
			}
		}(r)
	}
	for b := 0; b < batches; b++ {
		if _, _, err := m.ApplyBatch(wrapDeltas(stream[b*perBatch : (b+1)*perBatch])); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	stop.Store(true)
	wg.Wait()

	// Serial reference: same deltas, one at a time in stream order, on a
	// fresh fixture.
	sg, _ := batchFixture(t, gen)
	sm, err := NewMatcher(sg, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range stream {
		if _, _, err := sm.Apply(wrapDelta(d)); err != nil {
			t.Fatalf("serial delta %d: %v", i, err)
		}
	}
	var got, want bytes.Buffer
	if err := m.Graph().Write(&got); err != nil {
		t.Fatal(err)
	}
	if err := sm.Graph().Write(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("batched graph diverges from serial:\nbatched:\n%s\nserial:\n%s", got.String(), want.String())
	}
	if !reflect.DeepEqual(sortedPairs(m.Result().Matches), sortedPairs(sm.Result().Matches)) {
		t.Fatalf("batched pairs diverge from serial:\nbatched: %v\nserial:  %v",
			m.Result().Matches, sm.Result().Matches)
	}
}

// TestApplyBatchPartialFailure: a batch member that fails validation
// is skipped and reported while the rest of the batch applies.
func TestApplyBatchPartialFailure(t *testing.T) {
	gen := testutil.New(testutil.Config{Seed: 3, Groups: 2, PerGroup: 4})
	g, ks := batchFixture(t, gen)
	m, err := NewMatcher(g, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := NewDelta().AddValueTriple("g0-p0", "email", "new-mail")
	bad := NewDelta().AddEntityTriple("g0-p0", "knows", "no-such-entity")
	added, _, err := m.ApplyBatch([]*Delta{good, bad})
	if err == nil {
		t.Fatal("bad batch member did not surface an error")
	}
	_ = added
	// The good delta applied: p0 now shares new-mail with nobody, but
	// the triple must be present.
	found := false
	m.Graph().EachTriple(func(s EntityID, p, o string, isVal bool) {
		if s == "g0-p0" && p == "email" && o == "new-mail" && isVal {
			found = true
		}
	})
	if !found {
		t.Fatal("good batch member did not apply")
	}
	// And the state is still coherent with a full re-chase.
	full, err := Match(m.Graph(), ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Result().Matches, full.Matches) {
		t.Fatal("matcher state diverges from full re-chase after partial batch")
	}
}

// TestWriterCoalesces: a burst of small deltas through the Writer's
// buffer lands in fewer batches than deltas and ends in the state
// serial application in stream order reaches. The stream is dependent
// (Overlap 0.5 with entity churn: consecutive deltas mutate the same
// persons), so it holds only because batches apply in stream order and
// each batch applies its deltas in order (the Writer contract).
func TestWriterCoalesces(t *testing.T) {
	const groups = 6
	const perGroup = 8
	const deltas = groups * perGroup

	gen := testutil.New(testutil.Config{
		Seed:        9,
		Groups:      groups,
		PerGroup:    perGroup,
		Overlap:     0.5,
		EntityChurn: true,
	})
	stream := gen.Sequence(deltas)
	writerDelta := func(i int) *Delta { return wrapDelta(stream[i]) }

	g, ks := batchFixture(t, gen)
	m, err := NewMatcher(g, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := m.NewWriter()
	for i := 0; i < deltas; i++ {
		if err := w.Apply(writerDelta(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Deltas != deltas {
		t.Fatalf("writer processed %d deltas, want %d", st.Deltas, deltas)
	}
	if st.Failed != 0 {
		t.Fatalf("writer reports %d failed deltas, want 0", st.Failed)
	}
	if st.Batches == 0 || st.Batches > deltas {
		t.Fatalf("writer used %d batches for %d deltas", st.Batches, deltas)
	}
	// nil deltas are ignored; real Applies after Close fail.
	if err := w.Apply(nil); err != nil {
		t.Fatalf("nil delta errored: %v", err)
	}
	if err := w.Apply(writerDelta(0)); err == nil {
		t.Fatal("Apply after Close succeeded")
	}

	sg, _ := batchFixture(t, gen)
	sm, err := NewMatcher(sg, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < deltas; i++ {
		if _, _, err := sm.Apply(writerDelta(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got, want bytes.Buffer
	if err := m.Graph().Write(&got); err != nil {
		t.Fatal(err)
	}
	if err := sm.Graph().Write(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("writer-applied graph diverges from serial application")
	}
	if !reflect.DeepEqual(sortedPairs(m.Result().Matches), sortedPairs(sm.Result().Matches)) {
		t.Fatal("writer-applied pairs diverge from serial application")
	}
}

// TestWriterConcurrentProducers: GOMAXPROCS producers (at least two)
// share one Writer, each pushing more than its share of maxPending
// dependent deltas — add a person, add its email and, for every odd
// person, remove that email again — so the inline batch the maxPending-th
// delta triggers cuts every producer's stream mid-way. No delta fails
// (each producer's add precedes its email), every odd person ends
// without its email (its remove applied after its add), and the result
// equals a fresh Match of the final graph. Run under -race by the CI
// race job.
func TestWriterConcurrentProducers(t *testing.T) {
	producers := max(2, runtime.GOMAXPROCS(0))
	persons := maxPending/producers/2 + 1 // 2.5 deltas each
	g, ks := serveSupportFixture(t, 0)
	m, err := NewMatcher(g, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := m.NewWriter()
	mail := func(i int) string { return fmt.Sprintf("mail%d", i%5) }
	errs := make([]error, producers)
	var pushed atomic.Int64
	var wg sync.WaitGroup
	for p := range producers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < persons && errs[p] == nil; i++ {
				id := EntityID(fmt.Sprintf("w%d-%d", p, i))
				ds := []*Delta{NewDelta().AddEntity(id, "person"), NewDelta().AddValueTriple(id, "email", mail(i))}
				if i%2 == 1 {
					ds = append(ds, NewDelta().RemoveValueTriple(id, "email", mail(i)))
				}
				for _, d := range ds {
					if errs[p] = w.Apply(d); errs[p] != nil {
						break
					}
					pushed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("producer %d: %v", p, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Failed != 0 || st.Deltas != int(pushed.Load()) || st.Batches < 2 {
		t.Fatalf("writer stats %+v for %d deltas: want none failed and at least one inline batch before Close", st, pushed.Load())
	}
	for i := range 5 {
		var want []EntityID
		for p := range producers {
			for j := i; j < persons; j += 5 {
				if j%2 == 0 {
					want = append(want, EntityID(fmt.Sprintf("w%d-%d", p, j)))
				}
			}
		}
		got := m.EntitiesWith("email", mail(i))
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s is held by %d persons, want the %d even ones: a producer's remove applied before its add", mail(i), len(got), len(want))
		}
	}
	full, err := Match(m.Graph(), ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedPairs(m.Result().Matches), sortedPairs(full.Matches)) {
		t.Fatal("writer-applied pairs diverge from a fresh Match")
	}
}

// batchFuzzKeys identifies persons by email and, recursively, posts by
// title and an identified author.
const batchFuzzKeys = `key P for person {
    x -email-> e*
}
key W for post {
    x -title-> t*
    x -author-> $y:person
}`

// decodeBatches reads data as a stream of deltas cut into batches, two
// bytes an op: the kind, then one byte whose low and high nibbles are
// the two operands. Kinds 0–7 add an op on six persons and four posts
// (entities, emails, titles, author edges and their removals); an op on
// an absent entity makes its delta invalid. Kind 8 ends the delta, kind
// 9 the delta and the batch.
func decodeBatches(data []byte) [][]*Delta {
	var batches [][]*Delta
	var batch []*Delta
	d := NewDelta()
	endDelta := func() {
		if d.Len() > 0 {
			batch = append(batch, d)
			d = NewDelta()
		}
	}
	for i := 0; i+1 < len(data) && i < 2*64; i += 2 {
		a, b := int(data[i+1]&0x0f), int(data[i+1]>>4)
		p, q := EntityID(fmt.Sprintf("p%d", a%6)), EntityID(fmt.Sprintf("q%d", a%4))
		switch data[i] % 10 {
		case 0:
			d.AddEntity(p, "person")
		case 1:
			d.AddEntity(q, "post")
		case 2:
			d.AddValueTriple(p, "email", fmt.Sprintf("m%d", b%3))
		case 3:
			d.RemoveValueTriple(p, "email", fmt.Sprintf("m%d", b%3))
		case 4:
			d.AddValueTriple(q, "title", fmt.Sprintf("t%d", b%2))
		case 5:
			d.AddEntityTriple(q, "author", EntityID(fmt.Sprintf("p%d", b%6)))
		case 6:
			d.RemoveEntityTriple(q, "author", EntityID(fmt.Sprintf("p%d", b%6)))
		case 7:
			if b%2 == 0 {
				d.RemoveEntity(p)
			} else {
				d.RemoveEntity(q)
			}
		case 8:
			endDelta()
		case 9:
			endDelta()
			if len(batch) > 0 {
				batches = append(batches, batch)
				batch = nil
			}
		}
	}
	endDelta()
	if len(batch) > 0 {
		batches = append(batches, batch)
	}
	return batches
}

// FuzzApplyBatchEqualsSerial holds ApplyBatch to serial Apply (L6,
// batch = serial = replay) on two durable matchers fed one decoded
// delta stream, with invalid deltas and random batch cuts: the batch
// side gets each batch as one ApplyBatch, the serial side each delta as
// one Apply. The results are equal; each delta's Outcome carries the
// serial side's error text and its Seq() after that Apply; both logs
// decode to the same (seq, ops) records — their bytes differ by design,
// a batch being one group and a serial Apply a group of one; the batch
// side, closed and reopened from its log, equals itself live; and the
// reopened side and the serial side write byte-equal snapshots, after
// which their logs are byte-equal. The reopened side's pairs also equal
// oracle.Chase on its reopened graph: every other comparison here runs
// match and the chase on both sides. Mutants killed: outcome seqs read
// after the repair pass instead of per delta (every outcome of a batch
// at its last seq), inc.ApplyEach handing its pass only the last
// delta's added triples (res.AddedTriples = r.AddedTriples), and
// admitsPair ignoring eq for an entity variable (the oracle leg alone).
func FuzzApplyBatchEqualsSerial(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 0, 2, 1, 8, 0, 9, 0})
	// Two persons merge in one batch, one invalid delta between them, a
	// post on each, then a split in the next batch.
	f.Add([]byte{
		0, 0, 2, 0x10, 8, 0,
		5, 0x30, 8, 0,
		0, 1, 2, 0x11, 8, 0,
		1, 0, 4, 0, 5, 0, 8, 0,
		1, 1, 4, 1, 5, 0x11, 9, 0,
		3, 0x10, 8, 0, 7, 0x11, 9, 0,
	})
	// One batch creates six persons and two posts. In the next, the
	// first delta gives two persons one email, and the last adds only a
	// title to a post, far from either person.
	f.Add([]byte{
		0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 0, 1, 1, 9, 0,
		2, 0, 2, 1, 8, 0,
		4, 0, 9, 0,
	})
	// Two posts with one title, by two persons nothing identifies: the
	// posts stay apart.
	f.Add([]byte{0, 0, 0, 1, 1, 0, 1, 1, 4, 0, 4, 1, 5, 0, 5, 0x11, 9, 0})
	ks, err := ParseKeys(batchFuzzKeys)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		batches := decodeBatches(data)
		bdir, sdir := t.TempDir(), t.TempDir()
		bm, err := OpenMatcher(bdir, ks, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sm, err := OpenMatcher(sdir, ks, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer sm.Close()
		for b, batch := range batches {
			_, outcomes, _ := bm.ApplyBatch(batch)
			if len(outcomes) != len(batch) {
				t.Fatalf("batch %d: %d outcomes for %d deltas", b, len(outcomes), len(batch))
			}
			for i, d := range batch {
				_, _, err := sm.Apply(d)
				want := Outcome{Seq: sm.Seq(), Err: err}
				if got := outcomes[i]; got.Seq != want.Seq || fmt.Sprint(got.Err) != fmt.Sprint(want.Err) {
					t.Fatalf("batch %d delta %d: outcome seq %d, error %v; serial Apply: seq %d, error %v", b, i, got.Seq, got.Err, want.Seq, want.Err)
				}
			}
		}
		live := bm.Result()
		if !reflect.DeepEqual(live.Classes, sm.Result().Classes) {
			t.Fatalf("batched classes %v, serial %v", live.Classes, sm.Result().Classes)
		}
		sameFile := func(name string, dirA, dirB string) {
			t.Helper()
			a, errA := os.ReadFile(filepath.Join(dirA, name))
			b, errB := os.ReadFile(filepath.Join(dirB, name))
			if errA != nil || errB != nil || !bytes.Equal(a, b) {
				t.Fatalf("%s differs between the batch and the serial side (%v, %v)", name, errA, errB)
			}
		}
		if b, s := logRecords(t, bdir), logRecords(t, sdir); !reflect.DeepEqual(b, s) {
			t.Fatalf("the logs decode differently: batch side %+v, serial side %+v", b, s)
		}

		seq := bm.Seq()
		if err := bm.Close(); err != nil {
			t.Fatal(err)
		}
		if bm, err = OpenMatcher(bdir, ks, Options{}); err != nil {
			t.Fatal(err)
		}
		defer bm.Close()
		if bm.Seq() != seq || !reflect.DeepEqual(bm.Result().Classes, live.Classes) {
			t.Fatalf("reopened batch side at seq %d with classes %v, live at seq %d with %v", bm.Seq(), bm.Result().Classes, seq, live.Classes)
		}
		var def []eqrel.Pair
		for _, p := range oracle.Chase(bm.Graph().g, ks.set, nil) {
			def = append(def, eqrel.Pair{A: int32(p.A), B: int32(p.B)})
		}
		if got, want := bm.Result().Matches, buildResult(bm.Graph(), nil, def, Chase).Matches; !slices.Equal(got, want) {
			t.Fatalf("reopened batch side identifies %v, the definition %v", got, want)
		}
		if err := bm.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := sm.Snapshot(); err != nil {
			t.Fatal(err)
		}
		sameFile("snapshot", bdir, sdir)
		sameFile("wal.log", bdir, sdir)
	})
}
