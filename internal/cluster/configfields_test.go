package cluster

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryConfigFieldIsSet keeps the configuration surface to what some
// caller varies. Every exported field of a struct type named *Params,
// *Config or *Spec must be written somewhere in the module or in bench/
// outside the withDefaults and Default* functions that fill in its
// default; a calibrated cost that only its default ever sets is a
// constant beside the code that charges it (DESIGN.md §5).
func TestEveryConfigFieldIsSet(t *testing.T) {
	root := filepath.Join("..", "..")
	unset, err := unsetConfigFields(
		module{dir: root, path: "repro"},
		module{dir: filepath.Join(root, "bench"), path: "repro/bench"},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range unset {
		t.Errorf("%s is never set outside its defaults: make it a constant", u)
	}
}

// TestConfigFieldGateKeysOnType runs the gate on a fixture whose two
// config types share a field name. A caller writes AParams.Depth, and
// only its withDefaults writes BParams.Depth, so the gate must name
// BParams.Depth alone: a gate that went by field name would pass both.
func TestConfigFieldGateKeysOnType(t *testing.T) {
	unset, err := unsetConfigFields(module{dir: filepath.Join("testdata", "configfields"), path: "fixture"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range unset {
		got = append(got, u[strings.LastIndex(u, " ")+1:])
	}
	if want := "fixture.BParams.Depth"; len(got) != 1 || got[0] != want {
		t.Fatalf("gate named %q, want only %s", got, want)
	}
}

// module is a directory of Go source and its import path: a module's
// root for unsetConfigFields, or a package found under one.
type module struct{ dir, path string }

// unsetConfigFields type-checks every package of the given modules, with
// their in-package and external tests, and returns one line per exported
// field of a *Params, *Config or *Spec struct that nothing writes outside
// a withDefaults or Default* function: "file:line: pkg.Type.Field". A write
// is a composite-literal key (or a position in an unkeyed literal), the
// target of an assignment or ++/--, or an operand of &, and a target such
// as x.A.B writes both A and B. Each write is counted against the field's
// declaring type, so a same-named field of another type does not hide it.
func unsetConfigFields(mods ...module) ([]string, error) {
	l := &loader{
		fset:   token.NewFileSet(),
		mods:   mods,
		std:    importer.Default(),
		pkgs:   map[string]*checked{},
		parsed: map[string]*ast.File{},
	}
	var pkgs []module
	for _, m := range mods {
		err := filepath.WalkDir(m.dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() || path == m.dir {
				return err
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module is scanned as its own
			}
			rel, _ := filepath.Rel(m.dir, path)
			pkgs = append(pkgs, module{path, m.path + "/" + filepath.ToSlash(rel)})
			return nil
		})
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, m)
	}

	// Every field is keyed by the position of its name, which is the same
	// in each type-check of its package because each file is parsed once.
	fields := map[token.Pos]string{}
	written := map[token.Pos]bool{}
	for _, p := range pkgs {
		bp, err := build.Default.ImportDir(p.dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			continue
		}
		if err != nil {
			return nil, err
		}
		c, err := l.load(p.path)
		if err != nil {
			return nil, err
		}
		collectFields(c.pkg, fields)
		if len(bp.TestGoFiles) > 0 {
			// The in-package tests type-check with the package's own files.
			if c, err = l.check(p.path, p.dir, append(bp.GoFiles, bp.TestGoFiles...)); err != nil {
				return nil, err
			}
		}
		markWrites(c, written)
		if len(bp.XTestGoFiles) > 0 {
			// The external tests import the package without its
			// in-package tests, so they see no export_test.go.
			if c, err = l.check(p.path+"_test", p.dir, bp.XTestGoFiles); err != nil {
				return nil, err
			}
			markWrites(c, written)
		}
	}
	if len(fields) == 0 {
		return nil, fmt.Errorf("found no config fields under %v", mods)
	}
	var unset []string
	for pos, name := range fields {
		if !written[pos] {
			p := l.fset.Position(pos)
			unset = append(unset, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, name))
		}
	}
	sort.Strings(unset)
	return unset, nil
}

// collectFields records the exported fields of pkg's struct types named
// *Params, *Config or *Spec.
func collectFields(pkg *types.Package, fields map[token.Pos]string) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() ||
			!(strings.HasSuffix(name, "Params") || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Spec")) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				fields[f.Pos()] = pkg.Name() + "." + name + "." + f.Name()
			}
		}
	}
}

// markWrites records every field that c's files write outside the
// functions that fill in defaults.
func markWrites(c *checked, written map[token.Pos]bool) {
	field := func(id *ast.Ident) {
		if v, ok := c.info.Uses[id].(*types.Var); ok && v.IsField() {
			written[v.Pos()] = true
		}
	}
	// target marks each field on the path to an assigned location.
	target := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				field(x.Sel)
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return
			}
		}
	}
	visit := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			var st *types.Struct
			if t := c.info.TypeOf(n); t != nil {
				st, _ = t.Underlying().(*types.Struct)
			}
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						field(id)
					}
				} else if st != nil {
					written[st.Field(i).Pos()] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				target(lhs)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				target(n.Key)
				target(n.Value)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X)
			}
		}
		return true
	}
	for _, f := range c.files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok &&
				(fn.Name.Name == "withDefaults" || strings.HasPrefix(fn.Name.Name, "Default")) {
				continue
			}
			ast.Inspect(decl, visit)
		}
	}
}

// checked is one type-checked package with the files and facts behind it.
type checked struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loader type-checks the modules' packages from source, each once, and
// imports the standard library from its export data.
type loader struct {
	fset   *token.FileSet
	mods   []module
	std    types.Importer
	pkgs   map[string]*checked
	parsed map[string]*ast.File
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if l.dir(path) == "" {
		return l.std.Import(path)
	}
	c, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return c.pkg, nil
}

// load type-checks the non-test files of a module package once.
func (l *loader) load(path string) (*checked, error) {
	if c, ok := l.pkgs[path]; ok {
		return c, nil
	}
	dir := l.dir(path)
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	c, err := l.check(path, dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = c
	return c, nil
}

// check type-checks the named files of dir as package path.
func (l *loader) check(path, dir string, names []string) (*checked, error) {
	c := &checked{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range names {
		name = filepath.Join(dir, name)
		f, ok := l.parsed[name]
		if !ok {
			var err error
			if f, err = parser.ParseFile(l.fset, name, nil, 0); err != nil {
				return nil, err
			}
			l.parsed[name] = f
		}
		c.files = append(c.files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, c.files, c.info)
	if err != nil {
		return nil, err
	}
	c.pkg = pkg
	return c, nil
}

// dir returns the directory of a module package, or "" for any other
// import path. The longest matching module path wins, so a nested module
// such as bench/ is not read as a directory of its parent.
func (l *loader) dir(path string) string {
	best := -1
	for i, m := range l.mods {
		if (path == m.path || strings.HasPrefix(path, m.path+"/")) &&
			(best < 0 || len(m.path) > len(l.mods[best].path)) {
			best = i
		}
	}
	if best < 0 {
		return ""
	}
	m := l.mods[best]
	return filepath.Join(m.dir, filepath.FromSlash(strings.TrimPrefix(path, m.path)))
}
