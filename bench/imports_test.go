package main

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestImportsConfined keeps the ruler apart from what it measures: only
// sut.go may import the program, and nothing may import the program's own
// load client or HTTP framing (speeding those up must not speed this up).
func TestImportsConfined(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no Go files found")
	}
	fset := token.NewFileSet()
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if path != "repro" && !strings.HasPrefix(path, "repro/") {
				continue
			}
			if name != "sut.go" {
				t.Errorf("%s imports %s: only sut.go may import the program", name, path)
			}
			if path == "repro/internal/loadgen" || path == "repro/internal/rawhttp" {
				t.Errorf("%s imports %s: the benchmark owns its client", name, path)
			}
		}
	}
}
