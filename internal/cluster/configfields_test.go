package cluster

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryConfigFieldIsSet keeps the configuration surface to what some
// caller varies. Every exported field of a struct type named *Params,
// *Config or *Spec must be written somewhere in the module or in bench/
// outside the withDefaults and Default* functions that fill in its
// default; a calibrated cost that only its default ever sets is a
// constant beside the code that charges it (DESIGN.md). The check goes by
// field name, without type information: a name counts as written when it
// is the key of a keyed composite literal or any selector on an
// assignment's left-hand side, so x.Link.PerSwitchNs = v writes both Link
// and PerSwitchNs.
func TestEveryConfigFieldIsSet(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	type field struct {
		name string
		pos  token.Pos
		typ  string
	}
	var fields []field
	written := map[string]bool{}
	markWrites := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						written[id.Name] = true
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				ast.Inspect(lhs, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						written[sel.Sel.Name] = true
					}
					return true
				})
			}
		}
		return true
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok &&
				(fn.Name.Name == "withDefaults" || strings.HasPrefix(fn.Name.Name, "Default")) {
				continue
			}
			ast.Inspect(decl, markWrites)
			gen, ok := decl.(*ast.GenDecl)
			if !ok || strings.HasSuffix(path, "_test.go") {
				continue
			}
			for _, spec := range gen.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				name := ts.Name.Name
				if !ok || !(strings.HasSuffix(name, "Params") || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Spec")) {
					continue
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.IsExported() {
							fields = append(fields, field{id.Name, id.Pos(), f.Name.Name + "." + name})
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) == 0 {
		t.Fatal("found no config fields; is the module root right?")
	}
	for _, fl := range fields {
		if !written[fl.name] {
			t.Errorf("%s: %s.%s is never set: make it a constant", fset.Position(fl.pos), fl.typ, fl.name)
		}
	}
}
