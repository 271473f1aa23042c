package core

import (
	"errors"
	"runtime"
	"strings"
	"testing"
)

// FuzzParseRules feeds arbitrary text to the rule parser. Every rejection
// must be a *SyntaxError, never a panic or an untyped error, and the
// parser's allocation stays proportional to the input.
func FuzzParseRules(f *testing.F) {
	f.Add(sampleRules)
	f.Add("gfd r {\n node x _\n edge x _ x\n when x.a = \"c,d\"\n then x.b = x.a\n}\n")
	f.Add("gfd r {\n node x a\n node x b\n}\n")             // duplicate variable
	f.Add("gfd r {\n then x.a = 1\n}\n")                    // unknown variable
	f.Add("gfd r {\n node x a\n")                           // unterminated
	f.Add("gfd a {\n node x a\n}\ngfd a {\n node y b\n}\n") // duplicate name
	f.Add("}\n")

	f.Fuzz(func(t *testing.T, data string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ParseRules(strings.NewReader(data))
		runtime.ReadMemStats(&after)
		var se *SyntaxError
		if err != nil && !errors.As(err, &se) {
			t.Fatalf("untyped error %T: %v", err, err)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<20); got > limit {
			t.Fatalf("%d input bytes allocated %d bytes, limit %d", len(data), got, limit)
		}
	})
}

// TestParseRulesLineTooLong pins the one rejection the scanner, not the
// parser, finds: a line past the scanner's limit is a *SyntaxError too.
func TestParseRulesLineTooLong(t *testing.T) {
	_, err := ParseRules(strings.NewReader("# ok\n" + strings.Repeat("x", 1<<20+1)))
	var se *SyntaxError
	if !errors.As(err, &se) || se.Line != 2 {
		t.Fatalf("got %v, want a *SyntaxError on line 2", err)
	}
}
