package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The text format is line-oriented:
//
//	# comment
//	node <name> <label> [attr=value ...]
//	edge <from> <label> <to>
//
// Node names are arbitrary tokens (no whitespace); they are mapped to dense
// NodeIDs in order of first appearance. Attribute values may be quoted with
// double quotes if they contain spaces; '=' splits on the first occurrence.

// Write serializes g to w in the text format. Node names are n<ID>.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for id := 0; id < g.NumNodes(); id++ {
		fmt.Fprintf(bw, "node n%d %s", id, g.Label(NodeID(id)))
		attrs := g.NodeAttrs(NodeID(id))
		keys := make([]string, 0, len(attrs))
		for k := range attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			v := attrs[k]
			if strings.ContainsAny(v, " \t") {
				fmt.Fprintf(bw, " %s=%q", k, v)
			} else {
				fmt.Fprintf(bw, " %s=%s", k, v)
			}
		}
		fmt.Fprintln(bw)
	}
	var err error
	g.Edges(func(e Edge) bool {
		_, err = fmt.Fprintf(bw, "edge n%d %s n%d\n", e.From, e.Label, e.To)
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// SyntaxError reports malformed graph text: the line the problem was found
// on and what it is. Read returns every rejection of its input as one;
// only a failing reader's own error comes back as is.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string { return fmt.Sprintf("graph: line %d: %s", e.Line, e.Msg) }

func syntaxErr(line int, format string, args ...any) error {
	return &SyntaxError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Read parses the text format from r and returns the graph plus the mapping
// from node names to IDs.
func Read(r io.Reader) (*Graph, map[string]NodeID, error) {
	g := New(0, 0)
	names := make(map[string]NodeID)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := splitQuoted(line)
		if len(fields) == 0 {
			return nil, nil, syntaxErr(lineno, "no directive in %q", line)
		}
		switch fields[0] {
		case "node":
			if len(fields) < 3 {
				return nil, nil, syntaxErr(lineno, "node needs name and label")
			}
			name, label := fields[1], fields[2]
			if _, dup := names[name]; dup {
				return nil, nil, syntaxErr(lineno, "duplicate node %q", name)
			}
			var attrs Attrs
			if len(fields) > 3 {
				attrs = make(Attrs, len(fields)-3)
				for _, kv := range fields[3:] {
					k, v, ok := strings.Cut(kv, "=")
					if !ok {
						return nil, nil, syntaxErr(lineno, "bad attribute %q", kv)
					}
					attrs[k] = v
				}
			}
			names[name] = g.AddNode(label, attrs)
		case "edge":
			if len(fields) != 4 {
				return nil, nil, syntaxErr(lineno, "edge needs from, label, to")
			}
			from, ok := names[fields[1]]
			if !ok {
				return nil, nil, syntaxErr(lineno, "unknown node %q", fields[1])
			}
			to, ok := names[fields[3]]
			if !ok {
				return nil, nil, syntaxErr(lineno, "unknown node %q", fields[3])
			}
			if err := g.AddEdge(from, to, fields[2]); err != nil {
				return nil, nil, syntaxErr(lineno, "%v", err)
			}
		default:
			return nil, nil, syntaxErr(lineno, "unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, nil, syntaxErr(lineno+1, "%v", err)
		}
		return nil, nil, err
	}
	return g, names, nil
}

// splitQuoted splits on whitespace but keeps key="quoted value" tokens
// together (the quotes are stripped).
func splitQuoted(line string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '"':
			inQuote = !inQuote
		case (c == ' ' || c == '\t') && !inQuote:
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	flush()
	return out
}
