package tensordimm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestFacadeNamesHaveCallers keeps the facade (tensordimm.go) to names
// something calls: every exported name must be named as tensordimm.X by a
// file under examples/ or cmd/ or by a root test file (as a bare X in a
// test of package tensordimm). A facade name in the signature of a kept
// facade function counts as used.
func TestFacadeNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "tensordimm.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	sigs := map[string][]string{} // facade function -> identifiers in its signature
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				declared[d.Name.Name] = true
				ast.Inspect(d.Type, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						sigs[d.Name.Name] = append(sigs[d.Name.Name], id.Name)
					}
					return true
				})
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					declared[s.Name.Name] = s.Name.IsExported()
				case *ast.ValueSpec:
					for _, n := range s.Names {
						declared[n.Name] = n.IsExported()
					}
				}
			}
		}
	}

	var files []string
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, _ fs.DirEntry, err error) error {
			if strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	rootTests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, path := range append(files, rootTests...) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		bare := f.Name.Name == "tensordimm" // a root test inside the package
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "tensordimm" {
					used[n.Sel.Name] = true
				}
				ast.Inspect(n.X, visit) // a field or method name is not a facade name
				return false
			case *ast.Ident:
				if bare {
					used[n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
	}
	for fn, ids := range sigs {
		if used[fn] {
			for _, id := range ids {
				used[id] = true
			}
		}
	}

	var unused []string
	for name, exported := range declared {
		if exported && !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("facade names no example, cmd/ file or root test uses (delete them or cover them): %s",
			strings.Join(unused, ", "))
	}
}
