package mapreduce

import (
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestWordCount runs the canonical job: the runtime must produce the
// same counts regardless of p.
func TestWordCount(t *testing.T) {
	docs := []string{
		"a b c a",
		"b b c",
		"c c c",
		"",
	}
	want := map[string]int{"a": 2, "b": 3, "c": 5}
	for _, p := range []int{1, 2, 4, 8} {
		rt := New(p)
		type count struct {
			word string
			n    int
		}
		out := Round(rt, docs,
			func(doc string, emit func(string, int)) {
				for _, w := range strings.Fields(doc) {
					emit(w, 1)
				}
			},
			func(word string, ones []int, emit func(count)) {
				emit(count{word, len(ones)})
			})
		got := make(map[string]int)
		for _, c := range out {
			got[c.word] = c.n
		}
		if len(got) != len(want) {
			t.Fatalf("p=%d: got %v, want %v", p, got, want)
		}
		for w, n := range want {
			if got[w] != n {
				t.Fatalf("p=%d: count[%s]=%d, want %d", p, w, got[w], n)
			}
		}
		st := rt.Stats()
		if len(st) != 1 {
			t.Fatalf("p=%d: rounds = %d", p, len(st))
		}
		if st[0].Inputs != 4 || st[0].Emitted != 10 || st[0].Keys != 3 || st[0].Outputs != 3 {
			t.Errorf("p=%d: stats = %+v", p, st[0])
		}
	}
}

// TestEveryInputMapped: strided partitioning covers all inputs exactly
// once, for p larger and smaller than the input count.
func TestEveryInputMapped(t *testing.T) {
	for _, p := range []int{1, 3, 7, 32} {
		rt := New(p)
		n := 10
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = i
		}
		var mapped int64
		Round(rt, inputs,
			func(i int, emit func(int, struct{})) {
				atomic.AddInt64(&mapped, 1)
				emit(i, struct{}{})
			},
			func(k int, vs []struct{}, emit func(int)) {
				if len(vs) != 1 {
					t.Errorf("key %d mapped %d times", k, len(vs))
				}
				emit(k)
			})
		if mapped != int64(n) {
			t.Fatalf("p=%d: mapped %d inputs, want %d", p, mapped, n)
		}
	}
}

// TestMultipleRoundsAccumulateStats: each Round appends one stats entry.
func TestMultipleRoundsAccumulateStats(t *testing.T) {
	rt := New(2)
	for i := 0; i < 3; i++ {
		Round(rt, []int{1, 2, 3},
			func(i int, emit func(int, int)) { emit(i%2, i) },
			func(k int, vs []int, emit func(int)) { emit(len(vs)) })
	}
	if rt.Rounds() != 3 {
		t.Fatalf("Rounds = %d, want 3", rt.Rounds())
	}
}

// TestStragglerAccounting: an injected slow task shows up as the
// straggler, and other workers accumulate idle wait.
func TestStragglerAccounting(t *testing.T) {
	rt := New(4)
	rt.TaskDelay = func(w int) {
		if w == 0 {
			time.Sleep(20 * time.Millisecond)
		}
	}
	Round(rt, []int{1, 2, 3, 4},
		func(i int, emit func(int, int)) { emit(i, i) },
		func(k int, vs []int, emit func(int)) { emit(k) })
	st := rt.Stats()[0]
	if st.Straggler < 15*time.Millisecond {
		t.Errorf("straggler = %v, want >= 15ms", st.Straggler)
	}
	if st.IdleWait < 30*time.Millisecond {
		t.Errorf("idle wait = %v, want roughly 3 workers x 20ms", st.IdleWait)
	}
}

// TestCostModel: a configured cost model charges per round and per KV
// and records the charge in the stats.
func TestCostModel(t *testing.T) {
	rt := New(2)
	rt.Cost = CostModel{RoundLatency: 10 * time.Millisecond, PerKV: time.Millisecond}
	start := time.Now()
	Round(rt, []int{1, 2, 3},
		func(i int, emit func(int, int)) { emit(i, i) },
		func(k int, vs []int, emit func(int)) { emit(k) })
	elapsed := time.Since(start)
	// 10ms round + 3 KV x 1ms = 13ms minimum.
	//emlint:ignore walltime the cost model sleeps 13ms; a busy machine only lengthens it, so the lower bound cannot flake
	if elapsed < 12*time.Millisecond {
		t.Errorf("charged %v, want >= ~13ms", elapsed)
	}
	if got := rt.Stats()[0].SimulatedIO; got != 13*time.Millisecond {
		t.Errorf("SimulatedIO = %v, want 13ms", got)
	}
}

// TestNoCostByDefault: the zero cost model records nothing.
func TestNoCostByDefault(t *testing.T) {
	rt := New(2)
	Round(rt, []int{1},
		func(i int, emit func(int, int)) { emit(i, i) },
		func(k int, vs []int, emit func(int)) { emit(k) })
	if rt.Stats()[0].SimulatedIO != 0 {
		t.Error("cost charged without a model")
	}
}

// TestZeroAndNegativeP: the runtime clamps to one worker.
func TestZeroAndNegativeP(t *testing.T) {
	for _, p := range []int{0, -3} {
		rt := New(p)
		if rt.P() != 1 {
			t.Fatalf("New(%d).P() = %d, want 1", p, rt.P())
		}
	}
}

// TestEmptyInput: a round over no inputs still synchronizes cleanly.
func TestEmptyInput(t *testing.T) {
	rt := New(4)
	out := Round(rt, nil,
		func(i int, emit func(int, int)) { emit(i, i) },
		func(k int, vs []int, emit func(int)) { emit(k) })
	if len(out) != 0 {
		t.Fatalf("out = %v", out)
	}
	if rt.Stats()[0].Inputs != 0 {
		t.Error("stats recorded phantom inputs")
	}
}

// TestReduceSeesAllValuesOfKey: the shuffle groups values correctly
// across mapper partitions.
func TestReduceSeesAllValuesOfKey(t *testing.T) {
	rt := New(5)
	inputs := make([]int, 100)
	for i := range inputs {
		inputs[i] = i
	}
	out := Round(rt, inputs,
		func(i int, emit func(int, int)) { emit(i%7, i) },
		func(k int, vs []int, emit func([2]int)) {
			sum := 0
			for _, v := range vs {
				sum += v
			}
			emit([2]int{k, sum})
		})
	if len(out) != 7 {
		t.Fatalf("keys = %d, want 7", len(out))
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	for k := 0; k < 7; k++ {
		want := 0
		for i := 0; i < 100; i++ {
			if i%7 == k {
				want += i
			}
		}
		if out[k][1] != want {
			t.Errorf("key %d: sum = %d, want %d", k, out[k][1], want)
		}
	}
}
