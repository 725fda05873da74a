package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker. The shape matches
// golang.org/x/tools/go/analysis.Analyzer so checkers written here
// port directly onto the x/tools driver stack.
type Analyzer struct {
	// Name is the short identifier used in diagnostics and flags
	// (lowercase, no spaces).
	Name string
	// Doc states the invariant the analyzer enforces. The first line is
	// the summary shown by `abasecheck -help`.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass) (interface{}, error)
}

// String returns the analyzer's name.
func (a *Analyzer) String() string { return a.Name }

// Pass is the interface between the driver and one analyzer run over
// one package. A Pass is valid only during its Run call.
type Pass struct {
	// Analyzer is the checker being run.
	Analyzer *Analyzer
	// Fset maps positions for every file in the pass.
	Fset *token.FileSet
	// Files are the package's parsed syntax trees, with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type information for Files.
	TypesInfo *types.Info
	// Report delivers one finding to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos anchors the finding.
	Pos token.Pos
	// Message states the violation and, where possible, the fix.
	Message string
}
