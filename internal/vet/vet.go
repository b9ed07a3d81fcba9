// Package vet is a small, dependency-free analysis framework modelled on
// golang.org/x/tools/go/analysis, built only on the standard library's
// go/ast, go/parser and go/types. It exists because this repository's
// correctness tooling (cmd/bbbvet) must run without module downloads and
// the x/tools module is not vendored. Loading needs no network either: it
// reads the standard library from the export data the local toolchain
// builds (see Load).
//
// The API mirrors the shape of go/analysis so the custom passes
// (locklint, detlint, statlint, cyclelint) could be ported to the real
// framework verbatim if the dependency ever becomes available:
//
//   - An Analyzer bundles a name, doc string and a Run function.
//   - Run receives a Pass holding one fully type-checked package and
//     reports Diagnostics through Pass.Report.
//   - Analyzers needing a whole-module view (statlint's dead-counter
//     pairing) additionally implement Finish, which runs once after every
//     package pass with all passes visible.
//
// Suppression: a diagnostic is dropped when the offending line (or the
// line above it) carries a comment of the form
//
//	//bbbvet:ignore <analyzer> <reason>
//
// The block form /*bbbvet:ignore <analyzer> <reason>*/ is equivalent and
// lets several directives share one line. The reason is mandatory; an
// ignore directive without one is itself reported. This keeps every
// escape hatch self-documenting. Run drops suppressed diagnostics;
// RunAll keeps them with Ignored set, for machine consumers (-json).
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one analysis pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics and ignore directives.
	Name string
	// Doc is a one-paragraph description shown by `bbbvet -help`.
	Doc string
	// Run performs the per-package analysis.
	Run func(*Pass) error
	// Finish, if non-nil, runs once after Run has been called for every
	// package, with every pass visible; it reports module-wide findings
	// (diagnostics anchored to positions recorded during Run).
	Finish func(all []*Pass) []Diagnostic
}

// A Pass presents one type-checked package to an Analyzer's Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	// Facts is scratch state Run can leave behind for Finish.
	Facts any

	diags *[]Diagnostic
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Ignored marks a finding suppressed by a //bbbvet:ignore directive.
	// Run drops these; RunAll returns them marked.
	Ignored bool
	// Also lists further analyzers that reported the identical finding
	// (same file, line and message); RunAll folds such duplicates into one
	// diagnostic so per-analyzer counts stay reconstructible without the
	// user seeing the same message twice.
	Also []string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypesInfo returns the package's type information.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// Files returns the package's syntax trees.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// Run executes every analyzer over every package and returns the surviving
// (non-suppressed) diagnostics sorted by position, plus any ignore
// directives that lack a reason.
func Run(pkgs []*Package, fset *token.FileSet, analyzers []*Analyzer) ([]Diagnostic, error) {
	all, err := RunAll(pkgs, fset, analyzers)
	if err != nil {
		return nil, err
	}
	kept := all[:0]
	for _, d := range all {
		if !d.Ignored {
			kept = append(kept, d)
		}
	}
	return kept, nil
}

// RunAll is Run without the filtering: suppressed diagnostics are kept,
// marked Ignored, so machine consumers can see the full picture including
// every acknowledged finding.
func RunAll(pkgs []*Package, fset *token.FileSet, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	byAnalyzer := make(map[*Analyzer][]*Pass)
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			pass := &Pass{Analyzer: a, Fset: fset, Pkg: pkg, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
			byAnalyzer[a] = append(byAnalyzer[a], pass)
		}
	}
	for _, a := range analyzers {
		if a.Finish != nil {
			diags = append(diags, a.Finish(byAnalyzer[a])...)
		}
	}
	ig := newIgnoreIndex(pkgs, fset)
	for i := range diags {
		if ig.suppressed(diags[i]) {
			diags[i].Ignored = true
		}
	}
	diags = append(diags, ig.malformed...)
	diags = dedupe(diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// dedupe merges diagnostics several analyzers reported at the same file,
// line and message into one, keeping the first analyzer as the owner and
// recording the rest (sorted, unique) in Also. The merged diagnostic is
// Ignored only when every contributing analyzer's copy was suppressed: an
// ignore directive names one analyzer, so a duplicate from an unnamed
// analyzer must keep the finding alive.
func dedupe(diags []Diagnostic) []Diagnostic {
	type key struct {
		file string
		line int
		msg  string
	}
	at := make(map[key]int, len(diags))
	out := diags[:0]
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line, d.Message}
		i, seen := at[k]
		if !seen {
			at[k] = len(out)
			out = append(out, d)
			continue
		}
		m := &out[i]
		if d.Analyzer != m.Analyzer {
			dup := false
			for _, a := range m.Also {
				if a == d.Analyzer {
					dup = true
					break
				}
			}
			if !dup {
				m.Also = append(m.Also, d.Analyzer)
			}
		}
		m.Ignored = m.Ignored && d.Ignored
	}
	for i := range out {
		sort.Strings(out[i].Also)
	}
	return out
}

// ignoreIndex maps file → line → set of analyzer names suppressed there.
type ignoreIndex struct {
	lines     map[string]map[int]map[string]bool
	malformed []Diagnostic
}

const ignorePrefix = "//bbbvet:ignore"

func newIgnoreIndex(pkgs []*Package, fset *token.FileSet) *ignoreIndex {
	ig := &ignoreIndex{lines: make(map[string]map[int]map[string]bool)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					// Accept the block form too; it reduces to the line form.
					text := c.Text
					if strings.HasPrefix(text, "/*") {
						text = "//" + strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/"))
					}
					if !strings.HasPrefix(text, ignorePrefix) {
						continue
					}
					rest := strings.TrimPrefix(text, ignorePrefix)
					fields := strings.Fields(rest)
					pos := fset.Position(c.Pos())
					if len(fields) < 2 {
						ig.malformed = append(ig.malformed, Diagnostic{
							Analyzer: "bbbvet",
							Pos:      pos,
							Message:  "malformed ignore directive: want //bbbvet:ignore <analyzer> <reason>",
						})
						continue
					}
					name := fields[0]
					byLine := ig.lines[pos.Filename]
					if byLine == nil {
						byLine = make(map[int]map[string]bool)
						ig.lines[pos.Filename] = byLine
					}
					// The directive covers its own line and the next one, so
					// it works both as a trailing and a preceding comment.
					for _, ln := range []int{pos.Line, pos.Line + 1} {
						if byLine[ln] == nil {
							byLine[ln] = make(map[string]bool)
						}
						byLine[ln][name] = true
					}
				}
			}
		}
	}
	return ig
}

func (ig *ignoreIndex) suppressed(d Diagnostic) bool {
	byLine := ig.lines[d.Pos.Filename]
	if byLine == nil {
		return false
	}
	set := byLine[d.Pos.Line]
	return set[d.Analyzer] || set["all"]
}
