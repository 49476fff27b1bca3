package main

import (
	"strings"
	"testing"

	"graphkeys"
)

// TestOpenDurableSeedsOnlyAFreshDirectory: the graph seeds a directory
// at seq 0 and nothing else — one emptied by acknowledged removals is
// resumed empty, and the graph file is not even loaded.
func TestOpenDurableSeedsOnlyAFreshDirectory(t *testing.T) {
	ks, err := graphkeys.ParseKeys("key P for person {\n\tx -email-> e*\n}")
	if err != nil {
		t.Fatal(err)
	}
	loads := 0
	loadGraph := func() *graphkeys.Graph {
		loads++
		g, err := graphkeys.LoadGraph(strings.NewReader("p1:person\temail\t\"a@x\"\np2:person\temail\t\"a@x\"\n"))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	dir := t.TempDir()
	m, err := openDurable(dir, loadGraph, ks, graphkeys.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Seq() != 1 || !m.Same("p1", "p2") {
		t.Fatalf("fresh start: seq %d, Same(p1, p2) = %v", m.Seq(), m.Same("p1", "p2"))
	}
	if _, _, err := m.Apply(graphkeys.NewDelta().RemoveEntity("p1").RemoveEntity("p2")); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m, err = openDurable(dir, loadGraph, ks, graphkeys.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Seq() != 2 || m.Graph().NumEntities() != 0 || loads != 1 {
		t.Fatalf("restart: seq %d, %d entities, graph loaded %d times; want 2, 0, 1", m.Seq(), m.Graph().NumEntities(), loads)
	}
}
