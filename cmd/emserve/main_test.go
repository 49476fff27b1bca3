package main

import (
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphkeys"
)

const testGraph = "p1:person\temail\t\"a@x\"\np2:person\temail\t\"a@x\"\np3:person\temail\t\"b@x\"\n"

func testInputs(t *testing.T) (graphPath string, ks *graphkeys.KeySet) {
	t.Helper()
	graphPath = filepath.Join(t.TempDir(), "seed.graph")
	if err := os.WriteFile(graphPath, []byte(testGraph), 0o644); err != nil {
		t.Fatal(err)
	}
	ks, err := graphkeys.ParseKeys("key P for person {\n\tx -email-> e*\n}")
	if err != nil {
		t.Fatal(err)
	}
	return graphPath, ks
}

// TestOpenMatcherSeedsOnlyAFreshDirectory: the graph file seeds a
// directory at seq 0 and nothing else — a service whose every entity
// was removed through /apply stays empty across a restart, its
// acknowledged removals kept, and the restart logs the graph file it
// ignored.
func TestOpenMatcherSeedsOnlyAFreshDirectory(t *testing.T) {
	graphPath, ks := testInputs(t)
	dir := filepath.Join(t.TempDir(), "wal")
	opts := graphkeys.Options{Durability: graphkeys.DurabilityFsync}

	m, paid, err := openMatcher(dir, graphPath, ks, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Seq() != 1 || m.Graph().NumEntities() != 3 || !m.Same("p1", "p2") {
		t.Fatalf("fresh start: seq %d, %d entities, Same(p1, p2) = %v", m.Seq(), m.Graph().NumEntities(), m.Same("p1", "p2"))
	}
	if paid.load <= 0 || paid.open <= 0 || paid.chase <= 0 || paid.snapshot <= 0 {
		t.Fatalf("fresh start ran every phase, reported %+v", paid)
	}
	if _, _, err := m.Apply(graphkeys.NewDelta().RemoveEntity("p1").RemoveEntity("p2").RemoveEntity("p3")); err != nil {
		t.Fatal(err)
	}
	if m.Seq() != 2 || m.Graph().NumEntities() != 0 {
		t.Fatalf("after removing everything: seq %d, %d entities", m.Seq(), m.Graph().NumEntities())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	var logged bytes.Buffer
	defer slog.SetDefault(slog.Default())
	slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))
	m, paid, err = openMatcher(dir, graphPath, ks, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if want := "graph file ignored\" wal=" + dir + " seq=2 graph=" + graphPath + "\n"; !strings.HasSuffix(logged.String(), want) {
		t.Fatalf("restart logged %q, want a line ending in %q", logged.String(), want)
	}
	if m.Seq() != 2 || m.Graph().NumEntities() != 0 || m.Graph().NumTriples() != 0 {
		t.Fatalf("restart re-seeded an emptied directory: seq %d, %d entities, %d triples; want 2, 0, 0",
			m.Seq(), m.Graph().NumEntities(), m.Graph().NumTriples())
	}
	if paid.load != 0 || paid.open <= 0 || paid.chase != 0 || paid.snapshot != 0 {
		t.Fatalf("restart only opens, reported %+v", paid)
	}
}

// TestOneDurableProcess keeps emserve the one process that owns a WAL
// directory: of every non-test Go file under cmd/, only emserve's
// openMatcher names graphkeys.OpenMatcher and graphkeys.SeedMatcher. A
// second command that opens or seeds a directory serves it instead.
func TestOneDurableProcess(t *testing.T) {
	fset := token.NewFileSet()
	var found []string
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "graphkeys" {
				pkg = "graphkeys"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		if pkg == "" {
			return nil
		}
		for _, decl := range f.Decls {
			name := "package scope"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				name = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "OpenMatcher" && sel.Sel.Name != "SeedMatcher") {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
					found = append(found, sel.Sel.Name+" in "+path+" "+name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	at := " in " + filepath.Join("..", "emserve", "main.go") + " openMatcher"
	if want := []string{"OpenMatcher" + at, "SeedMatcher" + at}; strings.Join(found, "\n") != strings.Join(want, "\n") {
		t.Errorf("durable matchers under cmd/: %q, want only %q", found, want)
	}
}

// TestSlowHeaderClientIsDisconnected: a client that sends half a request
// line and stops is disconnected once the header timeout passes, rather
// than holding its connection open. The test lowers the timeout on the
// server newHTTPServer builds; the read deadline only keeps a failing
// run from hanging.
func TestSlowHeaderClientIsDisconnected(t *testing.T) {
	srv := newHTTPServer("", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != 0 {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v; want %v and none", srv.ReadHeaderTimeout, srv.IdleTimeout, readHeaderTimeout)
	}
	srv.ReadHeaderTimeout = 50 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /seq HT"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if n, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("after %d bytes: %v; want the server to close the connection", n, err)
	}
}
