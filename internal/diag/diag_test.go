package diag

import (
	"strings"
	"testing"

	"repro/internal/source"
)

func TestBagErr(t *testing.T) {
	var b Bag
	if b.HasErrors() || b.Err() != nil {
		t.Fatal("empty bag should have no errors")
	}
	b.Warnf("split-phase", source.Pos{}, "weakened pair %d-%d ignored", 1, 2)
	if b.HasErrors() {
		t.Fatal("warnings must not count as errors")
	}
	err := b.Errorf("parse", source.Pos{Line: 3, Col: 7}, "unexpected %q", "}")
	if err == nil || b.Err() == nil {
		t.Fatal("Errorf must record and return an error")
	}
	if got := b.Err().Error(); got != `3:7: unexpected "}"` {
		t.Errorf("Err().Error() = %q, want legacy line:col rendering", got)
	}
	if len(b.All()) != 2 {
		t.Errorf("All() = %d diagnostics, want 2", len(b.All()))
	}
	if n := len(b.BySeverity(Warning)); n != 1 {
		t.Errorf("BySeverity(Warning) = %d, want 1", n)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Pos: source.Pos{Line: 2, Col: 1}, Sev: Warning, Pass: "split-phase", Msg: "m"}
	if got := d.String(); !strings.Contains(got, "warning") || !strings.Contains(got, "split-phase") {
		t.Errorf("String() = %q missing severity or pass", got)
	}
	anchorless := Diagnostic{Sev: Error, Pass: "one-way", Msg: "m"}
	if got := anchorless.Error(); got != "m" {
		t.Errorf("anchorless Error() = %q, want bare message", got)
	}
	if (Severity(9)).String() == "" {
		t.Error("unknown severity should render")
	}
	if Note.String() != "note" || Error.String() != "error" {
		t.Error("severity names wrong")
	}
}

// HasErrors reports whether any error-severity diagnostic was recorded.
func (b *Bag) HasErrors() bool { return b.Err() != nil }
