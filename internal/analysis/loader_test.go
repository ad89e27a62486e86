package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"xrtree/internal/analysis"
)

// TestPackagesNoMatchFatal pins the fix for xrvet's silent exit-0: `go
// list` reports a typo'd pattern only as a stderr warning with exit 0,
// and the loader used to turn that into an empty package set — an
// analyzer run over nothing that looked like a clean bill of health.
func TestPackagesNoMatchFatal(t *testing.T) {
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if _, err := l.Packages([]string{"./nosuchdir/..."}); err == nil {
		t.Fatal("Packages matched nothing but returned no error")
	}
	if _, err := l.PackageDirs([]string{"./nosuchdir/..."}); err == nil {
		t.Fatal("PackageDirs matched nothing but returned no error")
	}
}

// TestBrokenImportFatal checks that a module whose package imports
// something unresolvable fails loading loudly instead of analyzing a
// partial package set.
func TestBrokenImportFatal(t *testing.T) {
	t.Setenv("GOPROXY", "off")
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module brokenmod\n\ngo 1.21\n",
		"a.go":   "package a\n\nimport _ \"no.such/pkg\"\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := analysis.NewLoader(dir); err == nil {
		t.Fatal("NewLoader succeeded on a module with an unresolvable import")
	}
}

// TestCacheRoundTrip exercises the per-(package, analyzer) diagnostic
// cache: miss before Put, hit after, clean runs distinguishable from
// absent entries, and source edits changing the key.
func TestCacheRoundTrip(t *testing.T) {
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	// Redirect the cache only now: set before NewLoader, it would also move
	// GOCACHE, and `go list -export` would rebuild the whole module.
	t.Setenv("XDG_CACHE_HOME", t.TempDir())
	c, err := analysis.OpenCache(l)
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}

	pkgDir := t.TempDir()
	src := filepath.Join(pkgDir, "p.go")
	if err := os.WriteFile(src, []byte("package p\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	key := c.PackageKey(pkgDir)
	if key == "" {
		t.Fatal("PackageKey returned empty for a readable package")
	}

	if _, ok := c.Get(key, "pinleak"); ok {
		t.Fatal("Get hit before Put")
	}
	want := []string{"p.go:1:1: finding one", "p.go:2:2: finding two"}
	c.Put(key, "pinleak", want)
	got, ok := c.Get(key, "pinleak")
	if !ok || len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Get after Put = %q, %v; want %q, true", got, ok, want)
	}

	// A clean run caches as an empty-but-present entry.
	c.Put(key, "latchorder", nil)
	if got, ok := c.Get(key, "latchorder"); !ok || len(got) != 0 {
		t.Fatalf("clean-run Get = %q, %v; want empty, true", got, ok)
	}

	// Editing the source must change the key.
	if err := os.WriteFile(src, []byte("package p\n\nvar x int\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if newKey := c.PackageKey(pkgDir); newKey == key {
		t.Fatal("PackageKey unchanged after source edit")
	}

	// A nil cache never hits and never panics.
	var nilCache *analysis.Cache
	if k := nilCache.PackageKey(pkgDir); k != "" {
		t.Fatalf("nil cache PackageKey = %q", k)
	}
	if _, ok := nilCache.Get("k", "pinleak"); ok {
		t.Fatal("nil cache Get hit")
	}
	nilCache.Put("k", "pinleak", want)
}
