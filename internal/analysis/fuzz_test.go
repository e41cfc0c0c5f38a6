package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// suppressionTemplate is the source FuzzSuppressions splices one
// comment into twice: as a trailing comment on the first line of a
// wrapped call (TRAILING), and on a line of its own above an if
// statement (STANDALONE). The if, for and switch bodies below must
// never be covered.
const suppressionTemplate = `package fixture

import "math/rand"

func pair(a, b int) int { return a + b }

func f(x int) int {
	y := pair(x, TRAILING
		rand.Intn(10))
	STANDALONE
	if y > 0 {
		y += rand.Intn(10)
	}
	for i := 0; i < x; i++ {
		y += i
	}
	switch y {
	case 1:
		y = rand.Intn(2)
	}
	return y
}
`

// FuzzSuppressions feeds jsk-lint's directive parser one comment's
// text, spliced into suppressionTemplate as a trailing and as a
// standalone comment. Inputs that do not parse as exactly those two
// comments are skipped. The contract: parsing never panics; each
// directive either names a real analyzer with a reason and suppresses
// that analyzer on its target line, or yields exactly one lint-ignore
// diagnostic and suppresses nothing; no directive covers a line inside
// an if, for or switch body.
func FuzzSuppressions(f *testing.F) {
	valid := analyzerNameSet()
	f.Fuzz(func(t *testing.T, comment string) {
		src := strings.Replace(suppressionTemplate, "TRAILING", comment, 1)
		src = strings.Replace(src, "STANDALONE", comment, 1)
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
		if err != nil {
			return
		}
		var comments []*ast.Comment
		for _, cg := range file.Comments {
			comments = append(comments, cg.List...)
		}
		if len(comments) != 2 || comments[0].Text != comment || comments[1].Text != comment {
			return // the input is not one comment
		}
		sup := parseSuppressions(fset, []*ast.File{file}, valid)

		body := bodyLines(fset, file)
		for key := range sup.byKey {
			parts := strings.Split(key, "\x00")
			line, err := strconv.Atoi(parts[len(parts)-1])
			if err != nil {
				t.Fatalf("key %q has no line", key)
			}
			if body[line] {
				t.Fatalf("%q covers line %d, inside an if, for or switch body:\n%s", comment, line, src)
			}
		}

		text, isDirective := directiveText(comment)
		fields := strings.Fields(text)
		wellFormed := isDirective && len(fields) >= 2 && valid[fields[0]]
		for _, c := range comments {
			pos := fset.Position(c.Pos())
			diags := 0
			for _, d := range sup.malformed {
				if d.Line == pos.Line && d.Col == pos.Column {
					if d.Analyzer != "lint-ignore" {
						t.Fatalf("malformed-directive diagnostic from %q", d.Analyzer)
					}
					diags++
				}
			}
			switch {
			case wellFormed && diags != 0:
				t.Fatalf("well-formed %q drew %d diagnostics", comment, diags)
			case wellFormed:
				covered := sup.suppressed(fields[0], pos.Filename, pos.Line) ||
					sup.suppressed(fields[0], pos.Filename, pos.Line+1)
				if !covered {
					t.Fatalf("well-formed %q at line %d suppresses neither its line nor the next", comment, pos.Line)
				}
			case isDirective && diags != 1:
				t.Fatalf("malformed %q drew %d diagnostics, want 1", comment, diags)
			case !isDirective && diags != 0:
				t.Fatalf("non-directive %q drew %d diagnostics", comment, diags)
			}
		}
		if !wellFormed && len(sup.byKey) != 0 {
			t.Fatalf("%q is not a well-formed directive but suppresses %d lines", comment, len(sup.byKey))
		}
	})
}

// bodyLines returns the lines strictly inside the bodies of the file's
// if, for, range and switch statements.
func bodyLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	mark := func(b *ast.BlockStmt) {
		if b == nil {
			return
		}
		from, to := fset.Position(b.Lbrace).Line, fset.Position(b.Rbrace).Line
		for l := from + 1; l < to; l++ {
			lines[l] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.IfStmt:
			mark(s.Body)
		case *ast.ForStmt:
			mark(s.Body)
		case *ast.RangeStmt:
			mark(s.Body)
		case *ast.SwitchStmt:
			mark(s.Body)
		case *ast.TypeSwitchStmt:
			mark(s.Body)
		}
		return true
	})
	return lines
}
