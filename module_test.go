package milan_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// loadedPackage is one package of the module, type-checked from its non-test
// files.  pkg is nil for a directory with no Go files.
type loadedPackage struct {
	path  string
	dir   string
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loadedModule is every package of the module plus bench/'s, which is a
// module of its own that imports milan's internal packages.
type loadedModule struct {
	fset  *token.FileSet
	pkgs  map[string]*loadedPackage // by import path
	decls map[types.Object]declared // package-level names and methods
}

// declared is the type expression a name is declared with: a func's
// signature, a type's definition, a var's or const's type (nil if elided).
type declared struct {
	expr ast.Expr
	info *types.Info
}

var (
	moduleOnce sync.Once
	module     *loadedModule
	moduleErr  error
)

// loadModule type-checks the non-test files of every package of the module
// and of bench/ that this platform builds, from source, once per test
// binary: the caller tests share one load.
func loadModule(t *testing.T) *loadedModule {
	t.Helper()
	moduleOnce.Do(func() { module, moduleErr = typeCheckModule(&build.Default) })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return module
}

// typeCheckModule loads the files ctx selects.  The standard library always
// comes from this platform's export data, so a file built only for another
// system type-checks against it; the compiler checks it for real.
func typeCheckModule(ctx *build.Context) (*loadedModule, error) {
	dirs := map[string]string{"milan/bench": "bench"} // import path -> directory
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." {
			if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" {
				return fs.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return fs.SkipDir // a nested module: bench/ is named above
			}
		}
		dirs[filepath.ToSlash(filepath.Join("milan", path))] = path
		return nil
	})
	if err != nil {
		return nil, err
	}
	m := &loadedModule{fset: token.NewFileSet(), pkgs: map[string]*loadedPackage{}, decls: map[types.Object]declared{}}
	std := importer.Default()
	var load func(path string) (*loadedPackage, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if _, ok := dirs[path]; !ok {
			return std.Import(path)
		}
		p, err := load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	})
	load = func(path string) (*loadedPackage, error) {
		if p, ok := m.pkgs[path]; ok {
			return p, nil
		}
		entries, err := os.ReadDir(dirs[path])
		if err != nil {
			return nil, err
		}
		p := &loadedPackage{path: path, dir: dirs[path], info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			// The files go build compiles here: a file's GOOS/GOARCH suffix
			// and build constraint select it, as they do for the compiler.
			if ok, err := ctx.MatchFile(dirs[path], name); err != nil {
				return nil, err
			} else if !ok {
				continue
			}
			f, err := parser.ParseFile(m.fset, filepath.Join(dirs[path], name), nil, 0)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		m.pkgs[path] = p
		if len(p.files) == 0 {
			return p, nil
		}
		conf := types.Config{Importer: imp}
		if p.pkg, err = conf.Check(path, m.fset, p.files, p.info); err != nil {
			return nil, err
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					m.decls[p.info.Defs[d.Name]] = declared{d.Type, p.info}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							m.decls[p.info.Defs[s.Name]] = declared{s.Type, p.info}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								m.decls[p.info.Defs[n]] = declared{s.Type, p.info}
							}
						}
					}
				}
			}
		}
		return p, nil
	}
	for path := range dirs {
		if _, err := load(path); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// signatureNames returns the named types and constants of the module that
// appear in the exported signature or exported fields of the given objects,
// and of those types in turn: a caller of a name uses what it must spell to
// use it.  A constant appears as an array length.
func (m *loadedModule) signatureNames(objs []types.Object) map[types.Object]bool {
	found := map[types.Object]bool{}
	inModule := func(p *types.Package) bool {
		return p != nil && (p.Path() == "milan" || strings.HasPrefix(p.Path(), "milan/"))
	}
	var consts func(d declared) func(ast.Node) bool
	consts = func(d declared) func(ast.Node) bool {
		return func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, f := range n.Fields.List {
					exported := len(f.Names) == 0 // embedded
					for _, name := range f.Names {
						exported = exported || name.IsExported()
					}
					if exported {
						ast.Inspect(f.Type, consts(d))
					}
				}
				return false
			case *ast.Ident:
				if c, ok := d.info.Uses[n].(*types.Const); ok && inModule(c.Pkg()) {
					found[c] = true
				}
			}
			return true
		}
	}
	seen := map[types.Type]bool{}
	var walk func(types.Type)
	visit := func(obj types.Object) {
		if d, ok := m.decls[obj]; ok && d.expr != nil {
			ast.Inspect(d.expr, consts(d))
		}
	}
	walk = func(typ types.Type) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch t := typ.(type) {
		case *types.Alias:
			found[t.Obj()] = true
			walk(types.Unalias(t))
		case *types.Named:
			tn := t.Origin().Obj()
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
			if inModule(tn.Pkg()) && !found[tn] {
				found[tn] = true
				visit(tn)
				walk(t.Underlying())
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Signature:
			for i := 0; i < t.Params().Len(); i++ {
				walk(t.Params().At(i).Type())
			}
			for i := 0; i < t.Results().Len(); i++ {
				walk(t.Results().At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		}
	}
	for _, obj := range objs {
		visit(obj)
		walk(obj.Type())
	}
	return found
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
