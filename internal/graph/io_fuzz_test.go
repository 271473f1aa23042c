package graph

import (
	"errors"
	"runtime"
	"strings"
	"testing"
)

// FuzzReadGraph feeds arbitrary text to the graph reader. Every rejection
// must be a *SyntaxError, never a panic or an untyped error; an accepted
// graph names every node it holds; and the reader's allocation stays
// proportional to the input.
func FuzzReadGraph(f *testing.F) {
	f.Add("# g\nnode a person name=ann\nnode b person name=\"bob b\"\nedge a knows b\n")
	f.Add("node a x\nnode a y\n")       // duplicate node
	f.Add("node a x k\n")               // bad attribute
	f.Add("edge a e b\n")               // unknown node
	f.Add("node a x\nedge a e a\n")     // self-loop
	f.Add("\"\"\n")                     // a line of nothing but quotes
	f.Add("node \"a b\" x v=\"1=2\"\n") // quoted name, '=' in a value

	f.Fuzz(func(t *testing.T, data string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, names, err := Read(strings.NewReader(data))
		runtime.ReadMemStats(&after)
		var se *SyntaxError
		switch {
		case err != nil && !errors.As(err, &se):
			t.Fatalf("untyped error %T: %v", err, err)
		case err == nil && g.NumNodes() != len(names):
			t.Fatalf("accepted graph holds %d nodes under %d names", g.NumNodes(), len(names))
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<20); got > limit {
			t.Fatalf("%d input bytes allocated %d bytes, limit %d", len(data), got, limit)
		}
	})
}

// TestReadLineTooLong pins the one rejection the scanner, not the reader,
// finds: a line past the scanner's limit is a *SyntaxError too.
func TestReadLineTooLong(t *testing.T) {
	_, _, err := Read(strings.NewReader("node a x\n" + strings.Repeat("y", 16<<20+1)))
	var se *SyntaxError
	if !errors.As(err, &se) || se.Line != 2 {
		t.Fatalf("got %v, want a *SyntaxError on line 2", err)
	}
}
