// Command doccheck enforces godoc completeness: it fails (exit 1) when any
// exported top-level identifier — function, method, type, or a const/var
// specification — in the given package directories lacks a doc comment.
// A const/var/type group is considered documented if either the group
// declaration or the individual specification carries a comment.
//
// With no arguments it checks contractPackages, the packages whose
// documentation this repository treats as a contract; CI runs it that way,
// from the repository root:
//
//	go run ./cmd/doccheck
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
)

// contractPackages is the default set of package directories, relative to
// the repository root.
var contractPackages = []string{
	"internal/cluster", "internal/serve", "internal/runtime",
	"internal/node", "internal/nmp", "internal/dimm", "internal/workload",
	"internal/wire", "internal/netserve", "internal/netclient",
	"internal/remote", "internal/faultnet",
	"internal/persist", "internal/chaos", "internal/telemetry",
	"internal/gate",
}

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = contractPackages
	}
	var failures []string
	for _, dir := range dirs {
		missing, err := checkDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", dir, err)
			os.Exit(2)
		}
		failures = append(failures, missing...)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, f)
		}
		fmt.Fprintf(os.Stderr, "doccheck: %d exported identifiers lack doc comments\n", len(failures))
		os.Exit(1)
	}
}

// checkDir parses one package directory (test files excluded) and returns
// one message per exported top-level identifier without a doc comment.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var missing []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: exported %s %s lacks a doc comment", p.Filename, p.Line, kind, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						kind := "function"
						if d.Recv != nil {
							kind = "method"
						}
						report(d.Pos(), kind, d.Name.Name)
					}
				case *ast.GenDecl:
					checkGenDecl(d, report)
				}
			}
		}
	}
	return missing, nil
}

// checkGenDecl walks a const/var/type declaration: an exported spec is
// documented if the spec itself or its enclosing group has a comment.
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && s.Doc == nil && d.Doc == nil {
				report(s.Pos(), "type", s.Name.Name)
			}
		case *ast.ValueSpec:
			if s.Doc != nil || s.Comment != nil || d.Doc != nil {
				continue
			}
			kind := strings.ToLower(d.Tok.String())
			for _, name := range s.Names {
				if name.IsExported() {
					report(s.Pos(), kind, name.Name)
				}
			}
		}
	}
}
