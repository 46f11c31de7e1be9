package bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoOptionsLiteralBypassesRunConfig: every engine an experiment builds
// must start from RunConfig.Options(), so rmmap-bench's -workers and
// -ctrl-shards reach every arm of every ablation. A platform.Options
// literal anywhere else in the package's non-test code would start an
// engine from a config the flags never touched.
func TestNoOptionsLiteralBypassesRunConfig(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if isRunConfigOptions(decl) {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				if sel, ok := lit.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Options" {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "platform" {
						t.Errorf("%s: platform.Options literal bypasses RunConfig.Options()", fset.Position(lit.Pos()))
					}
				}
				return true
			})
		}
	}
}

// isRunConfigOptions reports whether decl is the RunConfig.Options method —
// the one place allowed to build platform.Options from scratch.
func isRunConfigOptions(decl ast.Decl) bool {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok || fn.Recv == nil || fn.Name.Name != "Options" || len(fn.Recv.List) != 1 {
		return false
	}
	recv, ok := fn.Recv.List[0].Type.(*ast.Ident)
	return ok && recv.Name == "RunConfig"
}
