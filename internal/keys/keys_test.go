package keys

import (
	"strings"
	"testing"

	"graphkeys/internal/pattern"
)

const paperKeys = `
key Q1 for album {
    x -name_of-> name*
    x -recorded_by-> $y:artist
}
key Q2 for album {
    x -name_of-> name*
    x -release_year-> year*
}
key Q3 for artist {
    x -name_of-> name*
    $a:album -recorded_by-> x
}
key Q4 for company {
    x -name_of-> name*
    _w:company -name_of-> name*
    _w:company -parent_of-> x
    $c:company -parent_of-> x
}
key Q5 for company {
    x -name_of-> name*
    _w:company -name_of-> name*
    x -parent_of-> _w:company
    x -parent_of-> $c:company
}
key Q6 for street {
    x -zip_code-> code*
    x -nation_of-> "UK"
}
`

func paperSet(t *testing.T) *Set {
	t.Helper()
	s, err := ParseString(paperKeys)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return s
}

func TestSetBasics(t *testing.T) {
	s := paperSet(t)
	if s.Cardinality() != 6 {
		t.Fatalf("||Σ|| = %d, want 6", s.Cardinality())
	}
	if s.TotalSize() != 2+2+2+4+4+2 {
		t.Fatalf("|Σ| = %d, want 16", s.TotalSize())
	}
	if got := s.Types(); strings.Join(got, ",") != "album,artist,company,street" {
		t.Fatalf("Types = %v", got)
	}
	if _, ok := s.ByName("Q4"); !ok {
		t.Error("ByName(Q4) missing")
	}
	if _, ok := s.ByName("nosuch"); ok {
		t.Error("ByName(nosuch) found")
	}
	if len(s.Keys()) != 6 {
		t.Error("Keys() wrong length")
	}
}

func TestForTypeOrdering(t *testing.T) {
	s := paperSet(t)
	albums := s.ForType("album")
	if len(albums) != 2 {
		t.Fatalf("album keys = %d", len(albums))
	}
	// Value-based Q2 must sort before recursive Q1.
	if albums[0].Name != "Q2" || albums[1].Name != "Q1" {
		t.Errorf("album key order = %s, %s; want Q2, Q1", albums[0].Name, albums[1].Name)
	}
	if got := s.ForType("nosuch"); got != nil {
		t.Errorf("ForType(nosuch) = %v", got)
	}
}

func TestRadii(t *testing.T) {
	s := paperSet(t)
	if d := s.MaxRadiusForType("album"); d != 1 {
		t.Errorf("album d = %d, want 1", d)
	}
	if d := s.MaxRadiusForType("nosuch"); d != 0 {
		t.Errorf("nosuch d = %d, want 0", d)
	}
	if d := s.MaxRadius(); d != 1 {
		t.Errorf("max d = %d, want 1", d)
	}
}

func TestValueBasedDetection(t *testing.T) {
	s := paperSet(t)
	if !s.HasValueBasedKeyForType("album") {
		t.Error("album has value-based Q2")
	}
	if s.HasValueBasedKeyForType("artist") {
		t.Error("artist has only recursive Q3")
	}
	if s.HasValueBasedKeyForType("nosuch") {
		t.Error("nosuch type cannot have keys")
	}
}

func TestDependencyEdges(t *testing.T) {
	s := paperSet(t)
	dep := s.DependencyEdges()
	if got := dep["album"]; len(got) != 1 || got[0] != "artist" {
		t.Errorf("album deps = %v", got)
	}
	if got := dep["artist"]; len(got) != 1 || got[0] != "album" {
		t.Errorf("artist deps = %v", got)
	}
	if got := dep["company"]; len(got) != 1 || got[0] != "company" {
		t.Errorf("company deps = %v", got)
	}
	if _, ok := dep["street"]; ok {
		t.Error("street must have no deps")
	}
}

func TestLongestChainCyclic(t *testing.T) {
	s := paperSet(t)
	c, cyclic := s.LongestChain()
	// album <-> artist is a 2-cycle; company self-depends.
	if !cyclic {
		t.Error("paper keys are mutually recursive; want cyclic = true")
	}
	// The 2-cycle counts one step, and the company loop none.
	if c != 1 {
		t.Errorf("chain length = %d, want 1", c)
	}
}

func TestLongestChainAcyclic(t *testing.T) {
	src := `
key K0 for t0 {
    x -p-> v*
}
key K1 for t1 {
    x -p-> v*
    x -q-> $y:t0
}
key K2 for t2 {
    x -p-> v*
    x -q-> $y:t1
}
key K3 for t3 {
    x -p-> v*
    x -q-> $y:t2
}
`
	s, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	c, cyclic := s.LongestChain()
	if cyclic {
		t.Error("acyclic chain flagged cyclic")
	}
	if c != 3 {
		t.Errorf("chain length = %d, want 3 (t3 -> t2 -> t1 -> t0)", c)
	}
}

func TestLongestChainNoDeps(t *testing.T) {
	s, err := ParseString("key K for t {\n x -p-> v*\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	c, cyclic := s.LongestChain()
	if c != 0 || cyclic {
		t.Errorf("got c=%d cyclic=%v, want 0,false", c, cyclic)
	}
}

// TestLongestChainComplexSCC: a diamond of chains feeding a mutually
// recursive pair — the condensation must weight the cycle component
// and still find the longest path through it.
func TestLongestChainComplexSCC(t *testing.T) {
	// t4 -> t3 -> {tA <-> tB} -> t0 and t4 -> t0 directly.
	src := `
key K0 for t0 {
    x -p-> v*
}
key KA for tA {
    x -p-> v*
    x -q-> $y:tB
    x -r-> $z:t0
}
key KB for tB {
    x -p-> v*
    x -q-> $y:tA
}
key K3 for t3 {
    x -p-> v*
    x -q-> $y:tA
}
key K4 for t4 {
    x -p-> v*
    x -q-> $y:t3
    x -r-> $z:t0
}
`
	s, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	c, cyclic := s.LongestChain()
	if !cyclic {
		t.Error("tA <-> tB cycle not detected")
	}
	// Longest path: t4 -> t3 -> (tA,tB component: 2 types) -> t0.
	// The component counts one step inside it and each edge crossing
	// into or out of it one more: 1 + 1 + 1 + 1.
	if c != 4 {
		t.Errorf("chain = %d, want 4", c)
	}
}

// TestLongestChainSelfLoop: a type whose key references its own type
// (like Q4/Q5 for company) is cyclic even as a single node.
func TestLongestChainSelfLoop(t *testing.T) {
	s, err := ParseString(`
key K for company {
    x -name-> n*
    $c:company -parent_of-> x
}
`)
	if err != nil {
		t.Fatal(err)
	}
	c, cyclic := s.LongestChain()
	if !cyclic {
		t.Error("self-dependency not flagged cyclic")
	}
	if c != 0 {
		t.Errorf("chain = %d, want 0: a self-loop adds no step", c)
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	src := "key K for t {\n x -p-> v*\n}\nkey K for u {\n x -p-> v*\n}\n"
	if _, err := ParseString(src); err == nil {
		t.Fatal("duplicate key name accepted")
	}
}

func TestEmptyInputRejected(t *testing.T) {
	if _, err := ParseString("# nothing here\n"); err == nil {
		t.Fatal("empty key set accepted")
	}
}

func TestFromNamedValidates(t *testing.T) {
	bad := pattern.Named{Name: "B", Pattern: &pattern.Pattern{
		Nodes: []pattern.Node{{Kind: pattern.Designated, Name: "x", Type: "t"}},
		X:     0,
	}}
	if _, err := FromNamed([]pattern.Named{bad}); err == nil {
		t.Fatal("invalid pattern accepted")
	}
}

func TestFormatRoundTrip(t *testing.T) {
	s := paperSet(t)
	s2, err := ParseString(s.Format())
	if err != nil {
		t.Fatalf("reparse formatted set: %v", err)
	}
	if s2.Cardinality() != s.Cardinality() || s2.TotalSize() != s.TotalSize() {
		t.Error("format round trip changed the set")
	}
}

func TestKeyCaches(t *testing.T) {
	s := paperSet(t)
	q1, _ := s.ByName("Q1")
	if !q1.Recursive || q1.Radius != 1 {
		t.Errorf("Q1 cached meta wrong: recursive=%v radius=%d", q1.Recursive, q1.Radius)
	}
	q2, _ := s.ByName("Q2")
	if q2.Recursive {
		t.Error("Q2 must be value-based")
	}
}
