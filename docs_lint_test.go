package oblivjoin_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"oblivjoin/internal/bench"
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
// the docs: `pkg.Ident` or `pkg.Type.Member`, the package optionally
// path-qualified (`internal/pkg.Ident`) and the name optionally called
// (`pkg.Func()`). Lower-case names after the package are metric and span
// names (`oram.stash_peak`, `oram.flush`), not identifiers.
var docIdent = regexp.MustCompile("`(?:internal/)?([a-z][a-z0-9]*)\\.([A-Z][A-Za-z0-9_]*)(?:\\.([A-Za-z_][A-Za-z0-9_]*))?(?:\\(\\))?`")

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

// fence matches a fenced code block, which holds no code spans.
var fence = regexp.MustCompile("(?ms)^```.*?^```")

// codeSpan matches an inline code span; docFlag a span that starts with a
// command-line flag, and docExperiment an experiment ID anywhere in a span
// (`ablation-*` names the family, not an ID).
var (
	codeSpan      = regexp.MustCompile("`([^`]+)`")
	docFlag       = regexp.MustCompile(`^-([a-z][a-z0-9-]*)`)
	docExperiment = regexp.MustCompile(`\b(table[0-9]+|fig[0-9]+|ablation-[a-z0-9-]+)\b`)
)

// goTestFlags are the go command's own flags the docs show in test
// invocations; no command of this module registers them.
var goTestFlags = []string{"race", "run", "count", "bench", "fuzz", "tags"}

// TestDocsFlagsAndExperimentsResolve is the docs lint for the command
// line: in README.md, DESIGN.md and EXPERIMENTS.md, every code span that
// starts with `-name` must name a flag some cmd/*/main.go registers (or one
// of the go command's test flags), and every experiment ID a code span
// names must be one ojoinbench runs (bench.Experiments) — so that deleting
// a flag or an experiment cannot leave the docs telling anyone to use it.
func TestDocsFlagsAndExperimentsResolve(t *testing.T) {
	flags := map[string]bool{}
	for _, f := range goTestFlags {
		flags[f] = true
	}
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range mains {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			// The flag's name is the call's first string literal:
			// flag.Int("n", …) and flag.Var(&v, "n", …) alike.
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					flags[name] = true
					break
				}
			}
			return true
		})
	}
	if len(flags) == len(goTestFlags) {
		t.Fatal("found no flags in cmd/*/main.go")
	}
	experiments := bench.Experiments()
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range codeSpan.FindAllStringSubmatch(fence.ReplaceAllString(string(text), ""), -1) {
			span := m[1]
			if f := docFlag.FindStringSubmatch(span); f != nil && !flags[f[1]] {
				t.Errorf("%s: `%s` names flag -%s, which no command registers", doc, span, f[1])
			}
			for _, id := range docExperiment.FindAllString(span, -1) {
				if !slices.Contains(experiments, id) {
					t.Errorf("%s: `%s` names experiment %s, which ojoinbench does not run", doc, span, id)
				}
			}
		}
	}
}

// optionType names the structs the option lint covers: exported types
// whose name ends in Options or Config.
var optionType = regexp.MustCompile(`(Options|Config)$`)

// optionExceptions are the option fields allowed without a production
// setter, each with the reason it stays.
var optionExceptions = map[string]string{
	"remote.ClientOptions.PoolSize":       "transport deployment setting: a deployment tunes it, the defaults serve every caller here",
	"remote.ClientOptions.DialTimeout":    "transport deployment setting (see PoolSize)",
	"remote.ClientOptions.RequestTimeout": "transport deployment setting (see PoolSize)",
	"remote.ClientOptions.MaxRetries":     "transport deployment setting (see PoolSize)",
	"remote.ClientOptions.RetryBase":      "transport deployment setting (see PoolSize)",
	"remote.ClientOptions.MaxFrame":       "transport deployment setting (see PoolSize)",
	"remote.ServerOptions.SlowLog":        "log destination of a deployment; slog.Default() otherwise",
	"diskstore.Options.FS":                "the crash-test seam, until the CrashFS kill-point sweep moves to a test-support package",
	"diskstore.Options.CheckpointBytes":   "to be derived from public geometry instead of a flat default",
}

// TestOptionsHaveProductionSetters is the option lint: every exported field
// of an exported *Options or *Config struct must be set, to something other
// than a literal zero, by some non-test file of the module — commands,
// examples and the benchmark included — either as a composite-literal key
// or by an `x.F = v` assignment. A field that only tests set is a knob the
// program never turns: derive its value, or delete it. The match is by
// name (go/parser, no type checking): a literal of a named type counts for
// that package's type only, an elided-type literal or an assignment counts
// for every field of that name, and a literal that forwards `F: x.F` counts
// only if some field named F is set to a value of its own.
func TestOptionsHaveProductionSetters(t *testing.T) {
	type field struct{ pkg, typ, name string }
	var fields []field
	typed := map[field]bool{}     // set in a literal of a named type
	named := map[string]bool{}    // set in an elided-type literal or by assignment
	forwarded := map[field]bool{} // set in a literal of a named type to x.F, F its own name
	direct := map[string]bool{}   // some field of this name is set to a value of its own
	// zero reports a literal zero value: it sets nothing.
	zero := func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.BasicLit:
			return x.Value == "0" || x.Value == "0.0" || x.Value == `""`
		case *ast.Ident:
			return x.Name == "nil" || x.Name == "false"
		}
		return false
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || !n.Name.IsExported() || !optionType.MatchString(n.Name.Name) {
					return true
				}
				for _, fl := range st.Fields.List {
					for _, nm := range fl.Names {
						if nm.IsExported() {
							fields = append(fields, field{pkg, n.Name.Name, nm.Name})
						}
					}
				}
			case *ast.CompositeLit:
				lit := field{}
				switch x := n.Type.(type) {
				case *ast.Ident:
					lit.pkg, lit.typ = pkg, x.Name
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok {
						lit.pkg, lit.typ = id.Name, x.Sel.Name
					}
				}
				for _, e := range n.Elts {
					kv, ok := e.(*ast.KeyValueExpr)
					if !ok || zero(kv.Value) {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					lit.name = key.Name
					if sel, ok := kv.Value.(*ast.SelectorExpr); ok && sel.Sel.Name == key.Name && n.Type != nil {
						forwarded[lit] = true
						continue
					}
					direct[key.Name] = true
					if n.Type == nil {
						named[key.Name] = true
					} else {
						typed[lit] = true
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if ok && (len(n.Rhs) != len(n.Lhs) || !zero(n.Rhs[i])) {
						named[sel.Sel.Name] = true
						direct[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) == 0 {
		t.Fatal("found no option structs")
	}
	for _, f := range fields {
		ref := f.pkg + "." + f.typ + "." + f.name
		set := typed[f] || named[f.name] || forwarded[f] && direct[f.name]
		if _, ok := optionExceptions[ref]; ok {
			if set {
				t.Errorf("%s has a production setter now: drop its exception", ref)
			}
			continue
		}
		if !set {
			t.Errorf("%s is set by no non-test code: derive it or delete it", ref)
		}
	}
}
