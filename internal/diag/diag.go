// Package diag carries structured, position-tagged diagnostics through the
// compiler pipeline. Every stage reports through a shared Bag instead of
// returning bare error strings, so drivers can distinguish severities,
// attribute a message to the pass that produced it, and keep compiling past
// warnings while still failing on errors.
package diag

import (
	"fmt"

	"repro/internal/source"
)

// Severity classifies a diagnostic.
type Severity int

// Severities, ordered by badness.
const (
	Note Severity = iota
	Warning
	Error
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case Note:
		return "note"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Diagnostic is one position-tagged message attributed to a pipeline pass.
type Diagnostic struct {
	// Pos locates the message in the source (zero when the message has no
	// source anchor, e.g. a whole-program warning).
	Pos source.Pos
	// Sev is the severity.
	Sev Severity
	// Pass names the pipeline pass that reported the message.
	Pass string
	// Msg is the human-readable text.
	Msg string
}

// Error renders the diagnostic like the legacy error strings did
// ("line:col: msg"), keeping drivers' output stable; the pass name and
// severity travel as structure, not text.
func (d *Diagnostic) Error() string {
	if d.Pos.IsValid() {
		return fmt.Sprintf("%s: %s", d.Pos, d.Msg)
	}
	return d.Msg
}

// String renders the diagnostic with its severity and origin pass, for
// listings (pscc prints warnings this way).
func (d *Diagnostic) String() string {
	if d.Pos.IsValid() {
		return fmt.Sprintf("%s: %s [%s]: %s", d.Pos, d.Sev, d.Pass, d.Msg)
	}
	return fmt.Sprintf("%s [%s]: %s", d.Sev, d.Pass, d.Msg)
}

// Bag accumulates diagnostics across a pipeline run.
type Bag struct {
	list []Diagnostic
}

// Report appends a diagnostic.
func (b *Bag) Report(d Diagnostic) { b.list = append(b.list, d) }

// Errorf records an error-severity diagnostic and returns it as the error
// the reporting pass should propagate.
func (b *Bag) Errorf(pass string, pos source.Pos, format string, args ...any) error {
	d := Diagnostic{Pos: pos, Sev: Error, Pass: pass, Msg: fmt.Sprintf(format, args...)}
	b.Report(d)
	return &b.list[len(b.list)-1]
}

// Warnf records a warning.
func (b *Bag) Warnf(pass string, pos source.Pos, format string, args ...any) {
	b.Report(Diagnostic{Pos: pos, Sev: Warning, Pass: pass, Msg: fmt.Sprintf(format, args...)})
}

// All returns every recorded diagnostic in report order.
func (b *Bag) All() []Diagnostic { return b.list }

// BySeverity returns the recorded diagnostics of one severity.
func (b *Bag) BySeverity(sev Severity) []Diagnostic {
	var out []Diagnostic
	for _, d := range b.list {
		if d.Sev == sev {
			out = append(out, d)
		}
	}
	return out
}

// Err returns the first error-severity diagnostic as an error, or nil.
func (b *Bag) Err() error {
	for i := range b.list {
		if b.list[i].Sev == Error {
			return &b.list[i]
		}
	}
	return nil
}
