package oblivjoin_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestEveryPackageHasDocComment is the docs lint: every package in this
// module — the facade, every internal package, and every command — must
// carry a package comment, so `go doc` answers "what is this layer for"
// at every node of the architecture diagram in README.md.
func TestEveryPackageHasDocComment(t *testing.T) {
	var dirs []string
	dirs = append(dirs, ".")
	for _, root := range []string{"internal", "cmd"} {
		if err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				dirs = append(dirs, path)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var goFiles []string
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			goFiles = append(goFiles, filepath.Join(dir, name))
		}
		if len(goFiles) == 0 {
			continue
		}
		documented := false
		fset := token.NewFileSet()
		for _, path := range goFiles {
			f, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				t.Fatalf("parsing %s: %v", path, err)
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if !documented {
			t.Errorf("package in %s has no package comment on any of its %d files", dir, len(goFiles))
		}
	}
}

// docIdent matches a backticked reference to an exported Go identifier in
// the docs: `pkg.Ident` or `pkg.Type.Member`, optionally called
// (`pkg.Func()`). Lower-case names after the package are metric and span
// names (`oram.stash_peak`, `oram.flush`), not identifiers.
var docIdent = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Z][A-Za-z0-9_]*)(?:\\.([A-Za-z_][A-Za-z0-9_]*))?(?:\\(\\))?`")

// docIdentPlaceholders are references that name a pattern, not a
// declaration: the shard metrics' per-shard names.
var docIdentPlaceholders = map[string]bool{"shard.N.batches": true, "shard.N.blocks": true}

// pkgDecls is what a package declares, test files included: its top-level
// names, and each type's methods and fields.
type pkgDecls struct {
	top     map[string]bool
	members map[string]map[string]bool
}

func (d pkgDecls) member(typ, name string) {
	if d.members[typ] == nil {
		d.members[typ] = map[string]bool{}
	}
	d.members[typ][name] = true
}

// parseDecls reads the declarations of the package in dir.
func parseDecls(t *testing.T, dir string) (name string, decls pkgDecls) {
	t.Helper()
	decls = pkgDecls{top: map[string]bool{}, members: map[string]map[string]bool{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(f.Name.Name, "_test") {
			name = f.Name.Name
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					decls.top[d.Name.Name] = true
					continue
				}
				typ := d.Recv.List[0].Type
				for {
					switch x := typ.(type) {
					case *ast.StarExpr:
						typ = x.X
						continue
					case *ast.IndexExpr:
						typ = x.X
						continue
					case *ast.IndexListExpr:
						typ = x.X
						continue
					}
					break
				}
				if id, ok := typ.(*ast.Ident); ok {
					decls.member(id.Name, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							decls.top[n.Name] = true
						}
					case *ast.TypeSpec:
						decls.top[s.Name.Name] = true
						var fields *ast.FieldList
						switch x := s.Type.(type) {
						case *ast.StructType:
							fields = x.Fields
						case *ast.InterfaceType:
							fields = x.Methods
						}
						if fields == nil {
							continue
						}
						for _, fl := range fields.List {
							for _, n := range fl.Names {
								decls.member(s.Name.Name, n.Name)
							}
							if len(fl.Names) == 0 { // embedded: the type's name
								typ := fl.Type
								if st, ok := typ.(*ast.StarExpr); ok {
									typ = st.X
								}
								switch x := typ.(type) {
								case *ast.Ident:
									decls.member(s.Name.Name, x.Name)
								case *ast.SelectorExpr:
									decls.member(s.Name.Name, x.Sel.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return name, decls
}

// TestDocsIdentifiersResolve is the docs lint for references: every
// backticked `pkg.Ident` or `pkg.Type.Member` (Ident exported) in DESIGN.md, README.md and
// EXPERIMENTS.md whose pkg names a package of this module must name a
// declaration of that package (test files included) — a top-level name,
// or a method or field of the named type — so that a rename or a deletion
// cannot leave the docs pointing at nothing.
func TestDocsIdentifiersResolve(t *testing.T) {
	pkgs := map[string]pkgDecls{}
	dirs := []string{"."}
	if err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() {
			dirs = append(dirs, path)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if name, decls := parseDecls(t, dir); name != "" {
			pkgs[name] = decls
		}
	}
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docIdent.FindAllStringSubmatch(string(text), -1) {
			decls, ok := pkgs[m[1]]
			ref := strings.TrimSuffix(strings.Trim(m[0], "`"), "()")
			if !ok || docIdentPlaceholders[ref] {
				continue
			}
			switch {
			case m[3] == "" && !decls.top[m[2]]:
				t.Errorf("%s: `%s` names nothing package %s declares", doc, ref, m[1])
			case m[3] != "" && !decls.members[m[2]][m[3]]:
				t.Errorf("%s: `%s` names no method or field of %s.%s", doc, ref, m[1], m[2])
			}
		}
	}
}
