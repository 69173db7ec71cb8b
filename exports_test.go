package dcta_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// interfaceMethods are method names that fmt, errors and net/http call
// through an interface value. A name scan cannot see those calls, so such
// methods are exempt by rule.
var interfaceMethods = map[string]bool{"String": true, "Error": true, "ServeHTTP": true}

// exportSite is one exported non-test function or method.
type exportSite struct {
	key string // package.Name or package.Recv.Name
	pos string // file:line, relative to the scanned root
}

// deadExports scans every Go file under root (testdata and dot-directories
// skipped) and returns two lists of findings: each exported function or
// method declared in a non-test file whose name no other non-test identifier
// references and that allow does not list, and each allow entry that is
// stale because its function is now referenced or no longer exists.
func deadExports(root string, allow map[string]string) (dead, stale []string, err error) {
	fset := token.NewFileSet()
	refs := map[string]int{}
	var sites []exportSite
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !fn.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "."
			if fn.Recv != nil {
				if interfaceMethods[fn.Name.Name] {
					continue
				}
				key += recvName(fn.Recv.List[0].Type) + "."
			}
			rel, _ := filepath.Rel(root, path)
			sites = append(sites, exportSite{
				key: key + fn.Name.Name,
				pos: fmt.Sprintf("%s:%d", filepath.ToSlash(rel), fset.Position(fn.Pos()).Line),
			})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				refs[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	seen := map[string]bool{}
	for _, s := range sites {
		seen[s.key] = true
		name := s.key[strings.LastIndexByte(s.key, '.')+1:]
		if refs[name] > 0 {
			if _, ok := allow[s.key]; ok {
				stale = append(stale, s.key+": referenced by non-test code, drop it from the allowlist")
			}
			continue
		}
		if _, ok := allow[s.key]; !ok {
			dead = append(dead, fmt.Sprintf("%s (%s): no non-test code references it", s.key, s.pos))
		}
	}
	for key := range allow {
		if !seen[key] {
			stale = append(stale, key+": no such exported function, drop it from the allowlist")
		}
	}
	slices.Sort(dead)
	slices.Sort(stale)
	return dead, stale, nil
}

// recvName is the receiver's type name with any pointer and type parameters
// stripped.
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}

// readAllowlist reads one "package.Recv.Name reason" entry per line; blank
// lines and lines starting with # are skipped. An entry without a reason is
// an error.
func readAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, reason, _ := strings.Cut(text, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, line, key)
		}
		if _, dup := allow[key]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, line, key)
		}
		allow[key] = reason
	}
	return allow, sc.Err()
}

// maxAllowlist caps the exported API kept for tests alone.
const maxAllowlist = 10

// TestNoDeadExports fails on each exported non-test function or method of
// the module, bench/ included, that no non-test code references, and on each
// stale entry of testdata/exports_allowlist.txt. Code only tests use
// belongs in a _test.go file of its package.
func TestNoDeadExports(t *testing.T) {
	allow, err := readAllowlist("testdata/exports_allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(allow) > maxAllowlist {
		t.Errorf("allowlist has %d entries, want at most %d", len(allow), maxAllowlist)
	}
	dead, stale, err := deadExports(".", allow)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("dead export %s", d)
	}
	for _, s := range stale {
		t.Errorf("stale allowlist entry %s", s)
	}
}

// TestDeadExportsFixture holds the scan to a fixture module: a dead export
// that only a test calls, a method another package calls, a String method,
// an allowlisted export, and a stale allowlist entry of each kind.
func TestDeadExportsFixture(t *testing.T) {
	allow, err := readAllowlist("testdata/deadexports/allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	dead, stale, err := deadExports("testdata/deadexports", allow)
	if err != nil {
		t.Fatal(err)
	}
	wantDead := []string{"lib.Unused (lib/lib.go:12): no non-test code references it"}
	wantStale := []string{
		"lib.Gone: no such exported function, drop it from the allowlist",
		"lib.T.Used: referenced by non-test code, drop it from the allowlist",
	}
	if !slices.Equal(dead, wantDead) {
		t.Errorf("dead = %q, want %q", dead, wantDead)
	}
	if !slices.Equal(stale, wantStale) {
		t.Errorf("stale = %q, want %q", stale, wantStale)
	}
}
