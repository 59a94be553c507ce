// Package lint implements pushpull-lint: five repo-specific static
// analyzers that enforce, at compile time, the invariants the digest
// replays only check after the fact. The whole repo rests on runs being
// byte-identical for any worker count (`make sweep-check`, `make
// lab-check`) and for any seed replay (the pinned digests), and
// every analyzer here guards one way that property has been broken or
// nearly broken before:
//
//   - walltime: wall-clock reads (time.Now and friends) in simulation
//     code leak host timing into results that must depend only on
//     virtual time and the seed.
//   - globalrand: the process-global math/rand stream (and shared
//     rand.Source fields) is ordering-dependent state; randomness must
//     flow from the engine's seeded sim.Rand or a splitmix64-split
//     stream.
//   - maprange: Go map iteration order is randomized per run; ranging
//     over a map while appending to a slice, scheduling events or
//     writing a hash makes the iteration order reach a digest.
//   - taskletblock: tasklet steps run inline in engine context and must
//     never call the blocking process-tier primitives (Queue.Get/Put,
//     Resource.Acquire, Cond.Wait, Process.Sleep, Link.Transmit); only
//     the polling variants (PollGet/PollPut/PollAcquire/Await/
//     TransmitStep) are legal there.
//   - poolretain: pooled one-shot objects (sim event structs, nic
//     wireTx/rxJob, pushpull txJob) must not be stored anywhere after
//     the call that returns them to their free list.
//
// The driver is stdlib-only (go/parser + go/types + `go list -json`
// package discovery), keeping go.mod dependency-free. Diagnostics are
// deterministic (sorted by file, line, column, analyzer) and can be
// acknowledged only with a
//
//	//pushpull:lint-allow <analyzer> <reason>
//
// directive whose reason must be non-empty; the directive suppresses
// findings of that analyzer on its own line and on the line following
// its comment group.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
)

// Finding is one diagnostic. File is relative to the module root, so
// output is stable across checkouts.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Analyzer is one named pass over a loaded Program.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Program) []Finding
}

// Analyzers returns the five pushpull analyzers in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		walltimeAnalyzer,
		globalrandAnalyzer,
		maprangeAnalyzer,
		taskletblockAnalyzer,
		poolretainAnalyzer,
	}
}

// AnalyzerNames reports the known analyzer names, sorted, for directive
// validation and usage text.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is the full analyzed package set plus shared lookups.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package // sorted by import path
	// Root is the directory findings' file paths are made relative to.
	Root string

	// decls maps every top-level function/method object to its
	// declaration, across all loaded packages — the basis of the
	// taskletblock call-graph traversal.
	decls map[*types.Func]*ast.FuncDecl
	// declPkg maps a declaration back to its package (for type info).
	declPkg map[*ast.FuncDecl]*Package
}

// indexDecls builds the cross-package function-declaration lookup.
func (p *Program) indexDecls() {
	p.decls = make(map[*types.Func]*ast.FuncDecl)
	p.declPkg = make(map[*ast.FuncDecl]*Package)
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					p.decls[fn] = fd
					p.declPkg[fd] = pkg
				}
			}
		}
	}
}

// DeclOf returns the declaration of fn, if fn is declared in a loaded
// package.
func (p *Program) DeclOf(fn *types.Func) (*ast.FuncDecl, *Package) {
	d := p.decls[fn]
	if d == nil {
		return nil, nil
	}
	return d, p.declPkg[d]
}

// posOf converts a token.Pos into a Finding-ready position with the
// file path relative to the program root.
func (p *Program) posOf(pos token.Pos) (file string, line, col int) {
	ps := p.Fset.Position(pos)
	return relPath(p.Root, ps.Filename), ps.Line, ps.Column
}

// finding builds a Finding at pos.
func (p *Program) finding(analyzer string, pos token.Pos, format string, args ...any) Finding {
	file, line, col := p.posOf(pos)
	return Finding{
		Analyzer: analyzer,
		File:     file,
		Line:     line,
		Col:      col,
		Message:  fmt.Sprintf(format, args...),
	}
}

// Run executes the given analyzers over the program, validates and
// applies //pushpull:lint-allow directives, and returns the surviving
// findings in deterministic (file, line, col, analyzer, message) order.
func Run(prog *Program, analyzers []*Analyzer) []Finding {
	var all []Finding
	for _, a := range analyzers {
		all = append(all, a.Run(prog)...)
	}
	dirs, problems := collectDirectives(prog)
	all = append(suppress(all, dirs), problems...)
	SortFindings(all)
	return all
}

// SortFindings orders findings deterministically.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// WriteText renders findings one per line.
func WriteText(w io.Writer, fs []Finding) error {
	for _, f := range fs {
		if _, err := fmt.Fprintln(w, f.String()); err != nil {
			return err
		}
	}
	return nil
}

// jsonReport is the machine-readable output shape of pushpull-lint
// -json. Findings retain their sorted order.
type jsonReport struct {
	Findings []Finding `json:"findings"`
}

// WriteJSON renders findings as a single JSON document with stable
// ordering.
func WriteJSON(w io.Writer, fs []Finding) error {
	if fs == nil {
		fs = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonReport{Findings: fs})
}
