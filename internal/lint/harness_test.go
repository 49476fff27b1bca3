package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// This is the analysistest-style harness: fixture packages live under
// testdata/src/<importpath>, annotated with expectation comments
//
//	expr // want "regexp"
//
// one per line. Running an analyzer over a fixture must produce
// exactly the findings the want markers describe: an unexpected
// finding fails the test, and so does a want with no finding.
//
// Fixture imports resolve among the fixtures themselves — including
// tiny shims of the standard-library packages (sort, sync, os, fmt,
// slices) and of the repo packages (internal/graph, internal/obs,
// internal/wal) the analyzers recognize. The
// analyzers match packages by path suffix and symbol name, so the
// shims exercise the same code paths as the real tree while keeping
// the tests hermetic and fast.

// fixturePkg is one loaded fixture package.
type fixturePkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// fixtureLoader parses and type-checks fixture packages on demand,
// acting as its own types.Importer.
type fixtureLoader struct {
	fset *token.FileSet
	root string
	pkgs map[string]*fixturePkg
}

func newFixtureLoader() *fixtureLoader {
	return &fixtureLoader{
		fset: token.NewFileSet(),
		root: filepath.Join("testdata", "src"),
		pkgs: make(map[string]*fixturePkg),
	}
}

func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	fp, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return fp.pkg, nil
}

func (l *fixtureLoader) load(path string) (*fixturePkg, error) {
	if fp, ok := l.pkgs[path]; ok {
		return fp, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fixture package %q: %v", path, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("fixture package %q has no Go files", path)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	cfg := &types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
	}
	info := newTypesInfo()
	pkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %q: %v", path, err)
	}
	fp := &fixturePkg{pkg: pkg, files: files, info: info}
	l.pkgs[path] = fp
	return fp, nil
}

// want is one expectation marker.
type want struct {
	pos     token.Position
	re      *regexp.Regexp
	matched bool
}

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var ws []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				const prefix = "// want "
				if !strings.HasPrefix(c.Text, prefix) {
					continue
				}
				q := strings.TrimSpace(strings.TrimPrefix(c.Text, prefix))
				rx, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s: malformed want marker %q: %v", fset.Position(c.Pos()), c.Text, err)
				}
				re, err := regexp.Compile(rx)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", fset.Position(c.Pos()), rx, err)
				}
				ws = append(ws, &want{pos: fset.Position(c.Pos()), re: re})
			}
		}
	}
	return ws
}

// testAnalyzer runs one analyzer over the given fixture packages and
// checks its findings against the want markers.
func testAnalyzer(t *testing.T, a *Analyzer, paths ...string) {
	t.Helper()
	l := newFixtureLoader()
	for _, path := range paths {
		fp, err := l.load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		findings, err := runAnalyzers([]*Analyzer{a}, Pass{
			Fset:      l.fset,
			Files:     fp.files,
			Pkg:       fp.pkg,
			TypesInfo: fp.info,
		})
		if err != nil {
			t.Fatalf("running %s over %s: %v", a.Name, path, err)
		}
		wants := collectWants(t, l.fset, fp.files)
		for _, f := range findings {
			pos := l.fset.Position(f.diag.Pos)
			matched := false
			for _, w := range wants {
				if !w.matched && w.pos.Filename == pos.Filename && w.pos.Line == pos.Line && w.re.MatchString(f.diag.Message) {
					w.matched = true
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("%s: unexpected %s finding: %s", pos, f.analyzer, f.diag.Message)
			}
		}
		for _, w := range wants {
			if !w.matched {
				t.Errorf("%s: expected a finding matching %q, got none", w.pos, w.re)
			}
		}
	}
}
