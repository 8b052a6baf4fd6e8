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
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) > 0 {
		t.Fatalf("%d exported symbols lack doc comments:\n  %s",
			len(violations), strings.Join(violations, "\n  "))
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
	fence := regexp.MustCompile("(?ms)^[ \t]*```.*?^[ \t]*```")
	span := regexp.MustCompile("`([^`]+)`")
	flagName := regexp.MustCompile(`^-([A-Za-z][\w-]*)(?:[=\s]|$)`)
	var violations []string
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
			f := flagName.FindStringSubmatch(text[m[2]:m[3]])
			if f == nil || registered[f[1]] || goToolFlags[f[1]] {
				continue
			}
			line := 1 + strings.Count(text[:m[0]], "\n")
			violations = append(violations, fmt.Sprintf("%s:%d: -%s", doc, line, f[1]))
		}
	}
	if len(violations) > 0 {
		t.Fatalf("%d documented flags are registered by no command:\n  %s",
			len(violations), strings.Join(violations, "\n  "))
	}
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
