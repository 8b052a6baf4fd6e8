package repro_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestExportedSymbolsAreDocumented enforces the repository's
// documentation bar: every exported type, function, method, constant
// and variable in non-test files carries a doc comment. It walks the
// source with go/parser so the bar holds as the code grows.
func TestExportedSymbolsAreDocumented(t *testing.T) {
	var violations []string
	sourceFiles(t, parser.ParseComments, func(path string, fset *token.FileSet, file *ast.File) {
		for _, decl := range file.Decls {
			switch dd := decl.(type) {
			case *ast.FuncDecl:
				if dd.Name.IsExported() && dd.Doc == nil {
					violations = append(violations, loc(fset, dd.Pos(), "func "+dd.Name.Name))
				}
			case *ast.GenDecl:
				// A doc comment on the grouped declaration covers its
				// specs (the common Go style for const/var blocks).
				if dd.Doc != nil {
					continue
				}
				for _, spec := range dd.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() && sp.Doc == nil && sp.Comment == nil {
							violations = append(violations, loc(fset, sp.Pos(), "type "+sp.Name.Name))
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if n.IsExported() && sp.Doc == nil && sp.Comment == nil {
								violations = append(violations, loc(fset, sp.Pos(), "value "+n.Name))
							}
						}
					}
				}
			}
		}
	})
	if len(violations) > 0 {
		t.Fatalf("%d exported symbols lack doc comments:\n  %s",
			len(violations), strings.Join(violations, "\n  "))
	}
}

// sourceFiles parses every non-test Go file of the repository, bench/
// included and testdata and dot directories skipped, with mode, and
// hands each to fn with its path.
func sourceFiles(t *testing.T, mode parser.Mode, fn func(path string, fset *token.FileSet, file *ast.File)) {
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (strings.HasPrefix(name, ".") && name != ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, mode)
		if err != nil {
			return err
		}
		fn(path, fset, file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func loc(fset *token.FileSet, pos token.Pos, what string) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, what)
}

// goToolFlags are flags of the go command and its test binaries, which
// the docs name in recipes but no command of this repository registers.
var goToolFlags = map[string]bool{
	"bench": true, "benchmem": true, "benchtime": true, "count": true,
	"cpuprofile": true, "fuzz": true, "fuzztime": true, "race": true,
	"run": true, "short": true, "v": true,
}

// TestDocumentedFlagsExist checks that every flag README.md and
// DESIGN.md name, as an inline code span whose first word is -name or
// -name=value, is registered by a command: some cmd/*/main.go or
// bench/main.go, read with go/parser. Go toolchain flags are
// allowlisted. Whole spans are matched, so `pricefeedd`-style never
// reads as a flag -style, and fenced code blocks are skipped. A flag deleted from its command
// while the docs still describe it fails here.
func TestDocumentedFlagsExist(t *testing.T) {
	registered := registeredFlags(t)
	flagName := regexp.MustCompile(`^-([A-Za-z][\w-]*)(?:[=\s]|$)`)
	var violations []string
	for _, sp := range docSpans(t) {
		f := flagName.FindStringSubmatch(sp.text)
		if f == nil || registered[f[1]] || goToolFlags[f[1]] {
			continue
		}
		violations = append(violations, fmt.Sprintf("%s: -%s", sp.where, f[1]))
	}
	if len(violations) > 0 {
		t.Fatalf("%d documented flags are registered by no command:\n  %s",
			len(violations), strings.Join(violations, "\n  "))
	}
}

// docSpan is one inline code span of README.md or DESIGN.md.
type docSpan struct{ where, text string }

// docSpans returns the inline code spans of README.md and DESIGN.md,
// fenced code blocks skipped, each with its file:line.
func docSpans(t *testing.T) []docSpan {
	fence := regexp.MustCompile("(?ms)^[ \t]*```.*?^[ \t]*```")
	span := regexp.MustCompile("`([^`]+)`")
	var spans []docSpan
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// Blank fenced blocks in place so offsets still give line numbers.
		text := fence.ReplaceAllStringFunc(string(b), func(block string) string {
			return strings.Map(func(r rune) rune {
				if r == '\n' {
					return r
				}
				return ' '
			}, block)
		})
		for _, m := range span.FindAllStringSubmatchIndex(text, -1) {
			line := 1 + strings.Count(text[:m[0]], "\n")
			spans = append(spans, docSpan{fmt.Sprintf("%s:%d", doc, line), text[m[2]:m[3]]})
		}
	}
	return spans
}

// registeredFlags returns the names every flag.X("name", …) and
// flag.XVar(&v, "name", …) call registers in the commands' main files.
func registeredFlags(t *testing.T) map[string]bool {
	files, err := filepath.Glob("cmd/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, path := range append(files, "bench/main.go") {
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
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
			arg := 0
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arg = 1
			}
			if len(call.Args) <= arg {
				return true
			}
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					names[name] = true
				}
			}
			return true
		})
	}
	if len(names) == 0 {
		t.Fatal("no registered flags found")
	}
	return names
}

// calledOnlyByTests lists the exported functions and methods that no
// non-test file calls by name but that must stay, each with the reason.
// Keys are package.Func or package.Type.Method, the package named by its
// directory.
var calledOnlyByTests = map[string]string{
	"httpx.statusWriter.Unwrap":   "http.ResponseController finds it through an interface",
	"experiment.Suite.CostDigest": "internal/report's TestSuiteDigests, a test in another package, reads it",
	"leak.CheckT":                 "the test-helper package: only tests are meant to call it",
}

// TestExportedFunctionsHaveCallers fails on an exported function or
// method that no non-test Go file of the module, bench/ included,
// references outside its own declaration, so the exported surface
// cannot regrow code that only tests reach. It reads the source with
// go/parser, without types: a function counts as referenced when its
// package names it or another file selects it through an import of
// that package; a method, when any non-test file selects a field or
// method of that name from something other than a package, so a method
// sharing its name with another selector passes. Comments and string
// literals are not references. An exported function that must stay
// without a caller goes on calledOnlyByTests with its reason.
func TestExportedFunctionsHaveCallers(t *testing.T) {
	type decl struct{ key, ref, where string }
	var decls []decl
	// refs holds import path + "." + name for a function, "." + name for
	// a method.
	refs := map[string]bool{}
	sourceFiles(t, 0, func(path string, fset *token.FileSet, file *ast.File) {
		pkgPath := "repro"
		if dir := filepath.Dir(path); dir != "." {
			pkgPath += "/" + filepath.ToSlash(dir)
		}
		imports := map[string]string{}
		for _, im := range file.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		for _, dd := range file.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				ast.Inspect(dd, func(n ast.Node) bool { return noteRefs(n, "", "", "", pkgPath, imports, refs) })
				continue
			}
			// A function naming itself, or a method selecting itself
			// on its own receiver, is no caller.
			self, recv, ref := fd.Name.Name, "", pkgPath+"."+fd.Name.Name
			key := filepath.Base(filepath.Dir(path)) + "." + fd.Name.Name
			if fd.Recv != nil {
				self, ref = "", "."+fd.Name.Name
				if names := fd.Recv.List[0].Names; len(names) > 0 {
					recv = names[0].Name
				}
				key = filepath.Base(filepath.Dir(path)) + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			if fd.Name.IsExported() {
				decls = append(decls, decl{key, ref, loc(fset, fd.Pos(), key)})
			}
			if fd.Body != nil {
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					return noteRefs(n, self, recv, fd.Name.Name, pkgPath, imports, refs)
				})
			}
		}
	})
	var violations []string
	for _, d := range decls {
		if _, kept := calledOnlyByTests[d.key]; !refs[d.ref] && !kept {
			violations = append(violations, d.where)
		}
	}
	if len(violations) > 0 {
		t.Fatalf("%d exported functions have no caller outside tests; delete them or move them into the tests that use them:\n  %s",
			len(violations), strings.Join(violations, "\n  "))
	}
}

// noteRefs records in refs the references node n makes from package
// pkgPath: an identifier names a function of its own package, a
// selector on an imported package names that package's function, and
// any other selector names a method. n is in the body of function self,
// or of method name on receiver recv; neither's mentions of itself
// count.
func noteRefs(n ast.Node, self, recv, name, pkgPath string, imports map[string]string, refs map[string]bool) bool {
	switch e := n.(type) {
	case *ast.SelectorExpr:
		x, _ := e.X.(*ast.Ident)
		if x != nil && imports[x.Name] != "" {
			refs[imports[x.Name]+"."+e.Sel.Name] = true
			return false
		}
		if x == nil || x.Name != recv || e.Sel.Name != name {
			refs["."+e.Sel.Name] = true
		}
	case *ast.Ident:
		if e.Name != self {
			refs[pkgPath+"."+e.Name] = true
		}
	}
	return true
}

// recvName is the type name of a method receiver, T or *T, with any
// type parameters dropped.
func recvName(e ast.Expr) string {
	switch r := e.(type) {
	case *ast.StarExpr:
		return recvName(r.X)
	case *ast.IndexExpr:
		return recvName(r.X)
	case *ast.IndexListExpr:
		return recvName(r.X)
	case *ast.Ident:
		return r.Name
	}
	return "?"
}

// unresolvedDocSymbols lists the qualified names README.md and DESIGN.md
// may name although this module declares no such member, each with the
// reason.
var unresolvedDocSymbols = map[string]string{
	"quote.history": "a span name of the tracing vocabulary, not a Go symbol",
	"quote.eval":    "a span name of the tracing vocabulary, not a Go symbol",
	"sim.run":       "a span name of the tracing vocabulary, not a Go symbol",
}

// TestDocumentedSymbolsExist checks that every inline code span of
// README.md and DESIGN.md shaped pkg.Name, Type.Member or
// pkg.Type.Member (a trailing call's parentheses allowed) names
// something this module declares, when its qualifier is one of the
// module's packages or exported types: a package's top-level name, or
// a field or method of some type of that name. Spans with any other
// qualifier (the standard library's, a variable's) and fenced code
// blocks are skipped, and file names (trace.go) are not symbols. A
// symbol deleted or renamed while the docs still name it fails here.
func TestDocumentedSymbolsExist(t *testing.T) {
	pkgs, types := moduleSymbols(t)
	shape := regexp.MustCompile(`^([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\(.*\))?$`)
	fileExt := map[string]bool{"go": true, "md": true, "json": true, "jsonl": true, "txt": true, "sh": true, "csv": true, "svg": true, "mod": true}
	var violations []string
	for _, sp := range docSpans(t) {
		m := shape.FindStringSubmatch(sp.text)
		if m == nil || fileExt[m[2]] {
			continue
		}
		if _, ok := unresolvedDocSymbols[sp.text]; ok {
			continue
		}
		var ok bool
		switch names, isPkg := pkgs[m[1]]; {
		case isPkg && m[3] == "":
			ok = names[m[2]]
		case isPkg:
			ok = names[m[2]] && types[m[2]][m[3]]
		case ast.IsExported(m[1]) && types[m[1]] != nil && m[3] == "":
			ok = types[m[1]][m[2]]
		default:
			continue
		}
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: %s", sp.where, sp.text))
		}
	}
	if len(violations) > 0 {
		t.Fatalf("%d documented symbols are declared nowhere in the module:\n  %s",
			len(violations), strings.Join(violations, "\n  "))
	}
}

// moduleSymbols reads the module's non-test Go files with go/parser and
// returns each package's top-level names, keyed by package name, and
// each type name's fields and methods, merged over every package that
// declares a type of that name (an embedded field counts by its type's
// name; its promoted members do not). Command packages (main) are not
// qualifiers.
func moduleSymbols(t *testing.T) (pkgs map[string]map[string]bool, types map[string]map[string]bool) {
	pkgs, types = map[string]map[string]bool{}, map[string]map[string]bool{}
	add := func(m map[string]map[string]bool, key, name string) {
		if m[key] == nil {
			m[key] = map[string]bool{}
		}
		m[key][name] = true
	}
	sourceFiles(t, 0, func(_ string, _ *token.FileSet, file *ast.File) {
		pkg := file.Name.Name
		if pkg == "main" {
			pkg = ""
		}
		for _, decl := range file.Decls {
			switch dd := decl.(type) {
			case *ast.FuncDecl:
				if dd.Recv != nil {
					add(types, recvName(dd.Recv.List[0].Type), dd.Name.Name)
				} else if pkg != "" {
					add(pkgs, pkg, dd.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range dd.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if pkg != "" {
							add(pkgs, pkg, sp.Name.Name)
						}
						if types[sp.Name.Name] == nil {
							types[sp.Name.Name] = map[string]bool{}
						}
						st, ok := sp.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, f := range st.Fields.List {
							for _, n := range f.Names {
								add(types, sp.Name.Name, n.Name)
							}
							if len(f.Names) == 0 {
								embedded := f.Type
								if sel, ok := embedded.(*ast.SelectorExpr); ok {
									embedded = sel.Sel
								}
								add(types, sp.Name.Name, recvName(embedded))
							}
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if pkg != "" {
								add(pkgs, pkg, n.Name)
							}
						}
					}
				}
			}
		}
	})
	return pkgs, types
}
