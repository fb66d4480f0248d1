// Package analysis is the repo's custom static-analysis pass
// (cmd/dynexcheck): a stdlib-only framework (go/ast + go/types, no
// external dependencies) plus the repo-specific analyzers that machine-
// check the simulator's determinism, exhaustiveness, and telemetry-
// passivity invariants. DESIGN.md §9 describes each check and the
// guarantee it protects.
//
// A finding is reported as "file:line: [check] message". An audited
// exception is suppressed by placing
//
//	//dynexcheck:allow <check> <justification>
//
// on the line directly above the finding; the directive suppresses
// exactly that one named check on exactly the next line, and a directive
// naming an unknown check is itself a finding (check "directive").
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Diagnostic is one finding. The json tags (consumed by dynexcheck
// -json) marshal in declaration order, which is the stable wire order:
// file, line, col, check, message.
type Diagnostic struct {
	// File is the path relative to the module root.
	File string `json:"file"`
	// Line and Col are 1-based.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Check names the analyzer (or "directive" for directive errors).
	Check string `json:"check"`
	// Message describes the finding.
	Message string `json:"message"`
}

// String renders the canonical "file:line: [check] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Check, d.Message)
}

// Analyzer is one named check, run once per package.
type Analyzer struct {
	// Name is the check name used in diagnostics and allow directives.
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	// Run reports the analyzer's findings on pass.Pkg via pass.Reportf.
	Run func(pass *Pass)
}

// Pass hands one (analyzer, package) unit its inputs and collects its
// diagnostics.
type Pass struct {
	// Module is the loaded module (for cross-package type lookups).
	Module *Module
	// Pkg is the package under analysis.
	Pkg *Package

	check string
	out   *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Module.Fset.Position(pos)
	*p.out = append(*p.out, Diagnostic{
		File:    p.Module.RelPath(position.Filename),
		Line:    position.Line,
		Col:     position.Column,
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// RelImportPath returns the package's import path relative to the module
// ("internal/core"), with the external-test "_test" suffix stripped, so
// path-scoped analyzers treat a package and its tests alike.
func (p *Pass) RelImportPath() string {
	rel := strings.TrimSuffix(p.Pkg.ImportPath, "_test")
	if rel == p.Module.Path {
		return ""
	}
	return strings.TrimPrefix(rel, p.Module.Path+"/")
}

// Analyzers returns every check in canonical order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		FSMAnalyzer,
		CollectorPurityAnalyzer,
		CtxSleepAnalyzer,
		ErrFmtAnalyzer,
		RegistryAnalyzer,
		ColumnStatsAnalyzer,
		ObsMetricsAnalyzer,
		LockAnalyzer,
		GoroutineAnalyzer,
		AtomicMixAnalyzer,
		HotPathAnalyzer,
	}
}

// DirectiveCheck is the pseudo-check name under which malformed or
// unknown //dynexcheck:allow directives are reported.
const DirectiveCheck = "directive"

// allowKey identifies a (file, line, check) suppression target.
type allowKey struct {
	file  string
	line  int
	check string
}

// directiveSite is where an allow directive itself sits, for stale-allow
// diagnostics.
type directiveSite struct {
	line int
	col  int
}

// Check runs the analyzers over every package of mod and returns the
// surviving findings sorted by position. Allow directives are applied
// here: a valid directive on line N suppresses the named check's
// findings on line N+1 of the same file, and a directive that suppresses
// nothing is itself reported (check "directive") so allows cannot
// outlive the finding they audited.
//
// Units of (package, analyzer) run concurrently on a bounded worker
// pool — the analyzers are pure functions of the (immutable) loaded
// module — and results are merged in unit order, so output is
// deterministic regardless of scheduling.
func Check(mod *Module, analyzers []*Analyzer) []Diagnostic {
	type unit struct {
		pkg *Package
		a   *Analyzer
	}
	units := make([]unit, 0, len(mod.Pkgs)*len(analyzers))
	for _, pkg := range mod.Pkgs {
		for _, a := range analyzers {
			units = append(units, unit{pkg, a})
		}
	}
	results := make([][]Diagnostic, len(units))
	workers := min(runtime.GOMAXPROCS(0), len(units))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(units) {
					return
				}
				u := units[i]
				var out []Diagnostic
				u.a.Run(&Pass{Module: mod, Pkg: u.pkg, check: u.a.Name, out: &out})
				results[i] = out
			}
		}()
	}
	wg.Wait()
	var diags []Diagnostic
	for _, out := range results {
		diags = append(diags, out...)
	}

	// Directives are validated against the full registry, not the
	// selection: narrowing -checks must not turn valid directives for
	// other analyzers into findings.
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	allowed := map[allowKey]directiveSite{}
	for _, pkg := range mod.Pkgs {
		for _, file := range pkg.Files {
			scanDirectives(mod, file, known, allowed, &diags)
		}
	}

	used := map[allowKey]bool{}
	kept := diags[:0]
	for _, d := range diags {
		k := allowKey{d.File, d.Line, d.Check}
		if _, ok := allowed[k]; ok {
			used[k] = true
			continue
		}
		kept = append(kept, d)
	}

	// Stale-allow detection, restricted to the checks that actually ran:
	// a directive for an unselected analyzer may well suppress a real
	// finding we just didn't compute.
	selected := map[string]bool{}
	for _, a := range analyzers {
		selected[a.Name] = true
	}
	for k, site := range allowed {
		if selected[k.check] && !used[k] {
			kept = append(kept, Diagnostic{
				File: k.file, Line: site.line, Col: site.col,
				Check: DirectiveCheck,
				Message: fmt.Sprintf("allow directive for %q suppresses no finding on line %d: stale, remove it",
					k.check, k.line),
			})
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return kept
}

// directivePrefix introduces an allow directive. The comment form is a Go
// directive comment (no space after //), so gofmt leaves it untouched.
const directivePrefix = "//dynexcheck:allow"

// scanDirectives records every valid allow directive in file into
// allowed and reports malformed or unknown ones into diags.
func scanDirectives(mod *Module, file *ast.File, known map[string]bool, allowed map[allowKey]directiveSite, diags *[]Diagnostic) {
	for _, group := range file.Comments {
		for _, c := range group.List {
			rest, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			pos := mod.Fset.Position(c.Pos())
			rel := mod.RelPath(pos.Filename)
			report := func(format string, args ...any) {
				*diags = append(*diags, Diagnostic{
					File: rel, Line: pos.Line, Col: pos.Column,
					Check: DirectiveCheck, Message: fmt.Sprintf(format, args...),
				})
			}
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				// Some other //dynexcheck:allowXYZ token; almost certainly
				// a typo of the directive, so say so.
				report("malformed directive %q: want %q", c.Text, directivePrefix+" <check> <justification>")
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				report("directive %q is missing a check name", directivePrefix)
				continue
			}
			name := fields[0]
			if !known[name] {
				names := make([]string, 0, len(known))
				for k := range known {
					names = append(names, k)
				}
				sort.Strings(names)
				report("directive allows unknown check %q (known: %s)", name, strings.Join(names, ", "))
				continue
			}
			allowed[allowKey{rel, pos.Line + 1, name}] = directiveSite{line: pos.Line, col: pos.Column}
		}
	}
}
