package wal

import (
	"bufio"
	"fmt"
	"strings"

	"graphkeys/internal/graph"
)

// The version 1 snapshot, which no writer produces any more, is text:
//
//	#gkwal-snapshot v1 seq=N pairs=P isolated=I
//	P lines a<TAB>b, the identified pairs
//	I lines id:Type, the live entities no triple touches
//	#graph
//	the graph in the text format (graph.ParseText)
//
// readSnapshotV1 reads one, so a directory written before version 2
// still opens.
const (
	snapHeaderV1 = "#gkwal-snapshot v1"
	snapGraphSep = "#graph"
)

// readSnapshotV1 reads the snapshot whose header line is header from
// br, which holds the left bytes after it.
func readSnapshotV1(header string, br *bufio.Reader, left int) (uint64, *graph.Graph, [][2]string, error) {
	var seq uint64
	var nPairs, nIsolated int
	if _, err := fmt.Sscanf(strings.TrimSpace(header), snapHeaderV1+" seq=%d pairs=%d isolated=%d", &seq, &nPairs, &nIsolated); err != nil {
		return 0, nil, nil, fmt.Errorf("wal: snapshot header %q: %v", strings.TrimSpace(header), err)
	}
	if nPairs < 0 || nIsolated < 0 {
		return 0, nil, nil, fmt.Errorf("wal: snapshot header %q: negative count", strings.TrimSpace(header))
	}
	// The counts are untrusted, like the log's length prefixes: a line
	// takes at least one byte, so no more lines than the bytes left
	// after the header are preallocated for.
	pairs := make([][2]string, 0, min(nPairs, left))
	for i := 0; i < nPairs; i++ {
		line, err := br.ReadString('\n')
		if err != nil {
			return 0, nil, nil, fmt.Errorf("wal: snapshot pairs: %v", err)
		}
		a, b, ok := strings.Cut(strings.TrimRight(line, "\n"), "\t")
		if !ok {
			return 0, nil, nil, fmt.Errorf("wal: snapshot pair line %q", line)
		}
		pairs = append(pairs, [2]string{a, b})
	}
	isolated := make([]string, 0, min(nIsolated, left))
	for i := 0; i < nIsolated; i++ {
		line, err := br.ReadString('\n')
		if err != nil {
			return 0, nil, nil, fmt.Errorf("wal: snapshot isolated entities: %v", err)
		}
		isolated = append(isolated, strings.TrimRight(line, "\n"))
	}
	sep, err := br.ReadString('\n')
	if err != nil || strings.TrimSpace(sep) != snapGraphSep {
		return 0, nil, nil, fmt.Errorf("wal: snapshot graph separator missing")
	}
	g, err := graph.ParseText(br)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("wal: snapshot graph: %v", err)
	}
	for _, tok := range isolated {
		// As in the graph text format, the LAST colon splits id from
		// type (entity IDs may contain colons).
		i := strings.LastIndexByte(tok, ':')
		if i <= 0 || i == len(tok)-1 {
			return 0, nil, nil, fmt.Errorf("wal: snapshot isolated entity %q", tok)
		}
		if _, err := g.AddEntity(tok[:i], tok[i+1:]); err != nil {
			return 0, nil, nil, fmt.Errorf("wal: snapshot isolated entity %q: %v", tok, err)
		}
	}
	return seq, g, pairs, nil
}
