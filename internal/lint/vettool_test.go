package lint

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// End-to-end tests of the vettool protocol: build the real cmd/emlint
// binary and drive it through `go vet -vettool`, exactly as CI does.

func repoRoot(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

func buildEmlint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "emlint")
	cmd := exec.Command("go", "build", "-o", bin, "graphkeys/cmd/emlint")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building emlint: %v\n%s", err, out)
	}
	return bin
}

// TestVettoolCleanOnTree is the acceptance gate: the suite must pass
// over the repository itself. A finding here needs either a fix or a
// reasoned //emlint:ignore.
func TestVettoolCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("vets the whole repository")
	}
	bin := buildEmlint(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("emlint is not clean over the tree: %v\n%s", err, out)
	}
}

// TestBenchmarkModuleVets type-checks benchmark/, a separate module the
// root `./...` patterns never reach: it calls into graphkeys/internal
// through benchmark/entrypoints.go, so deleting or renaming an internal
// entry point it uses must fail here rather than when the benchmark
// next builds. The module is stdlib-only with `replace graphkeys =>
// ../`, so this works offline.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("vets the benchmark module")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = filepath.Join(repoRoot(t), "benchmark")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("benchmark/ no longer vets against this tree: %v\n%s", err, out)
	}
}

// TestVettoolFailsOnSeededViolations proves the lint gate actually
// bites: a module seeded with a maporder and a walerr violation must
// fail the vet run, naming both analyzers.
func TestVettoolFailsOnSeededViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and vets a scratch module")
	}
	bin := buildEmlint(t)
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module seeded\n\ngo 1.24\n")
	write("seed.go", `package seeded

import "os"

func Keys(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

func Publish(tmp, final string) {
	os.Rename(tmp, final)
}
`)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOPROXY=off")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("seeded violations were not reported; output:\n%s", out)
	}
	for _, needle := range []string{"maporder", "walerr", "map order is nondeterministic", "os.Rename"} {
		if !strings.Contains(string(out), needle) {
			t.Errorf("vet output is missing %q:\n%s", needle, out)
		}
	}
}
