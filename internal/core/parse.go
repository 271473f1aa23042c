package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"gfd/internal/pattern"
)

// The rule file format is line-oriented:
//
//	# comment
//	gfd <name> {
//	  node <var> <label>          # label may be _ (wildcard)
//	  edge <var> <label> <var>    # label may be _
//	  when <literal> [, <literal> ...]
//	  then <literal> [, <literal> ...]
//	}
//
// A literal is either  x.A = y.B  (variable literal, y must be a declared
// variable) or  x.A = "c" / x.A = c  (constant literal). `when` may be
// omitted (X = ∅). Multiple `when`/`then` lines accumulate.

// SyntaxError reports a malformed rule file: the line the problem was
// found on and what it is. ParseRules returns every rejection of its input
// as one; only a failing reader's own error comes back as is.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string { return fmt.Sprintf("rules: line %d: %s", e.Line, e.Msg) }

// ParseRules reads a rule file and returns the rule set.
func ParseRules(r io.Reader) (*Set, error) {
	set := MustNewSet()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineno := 0

	var (
		cur  *ruleBuilder
		name string
	)
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case fields[0] == "gfd":
			if cur != nil {
				return nil, syntaxErr(lineno, "nested gfd block")
			}
			if len(fields) < 3 || fields[len(fields)-1] != "{" {
				return nil, syntaxErr(lineno, "want `gfd <name> {`")
			}
			name = strings.Trim(fields[1], `"`)
			cur = &ruleBuilder{q: pattern.New()}
		case fields[0] == "}":
			if cur == nil {
				return nil, syntaxErr(lineno, "stray '}'")
			}
			f, err := New(name, cur.q, cur.x, cur.y)
			if err != nil {
				return nil, syntaxErr(lineno, "%v", err)
			}
			if err := set.Add(f); err != nil {
				return nil, syntaxErr(lineno, "%v", err)
			}
			cur = nil
		case cur == nil:
			return nil, syntaxErr(lineno, "%q outside gfd block", fields[0])
		case fields[0] == "node":
			if len(fields) != 3 {
				return nil, syntaxErr(lineno, "want `node <var> <label>`")
			}
			if _, dup := cur.q.VarIndex(pattern.Var(fields[1])); dup {
				return nil, syntaxErr(lineno, "duplicate variable %q", fields[1])
			}
			cur.q.AddNode(pattern.Var(fields[1]), fields[2])
		case fields[0] == "edge":
			if len(fields) != 4 {
				return nil, syntaxErr(lineno, "want `edge <from> <label> <to>`")
			}
			from, ok := cur.q.VarIndex(pattern.Var(fields[1]))
			if !ok {
				return nil, syntaxErr(lineno, "unknown variable %q", fields[1])
			}
			to, ok := cur.q.VarIndex(pattern.Var(fields[3]))
			if !ok {
				return nil, syntaxErr(lineno, "unknown variable %q", fields[3])
			}
			cur.q.AddEdge(from, to, fields[2])
		case fields[0] == "when", fields[0] == "then":
			rest := strings.TrimSpace(line[len(fields[0]):])
			lits, err := parseLiterals(rest, cur.q)
			if err != nil {
				return nil, syntaxErr(lineno, "%v", err)
			}
			if fields[0] == "when" {
				cur.x = append(cur.x, lits...)
			} else {
				cur.y = append(cur.y, lits...)
			}
		default:
			return nil, syntaxErr(lineno, "unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, syntaxErr(lineno+1, "%v", err)
		}
		return nil, err
	}
	if cur != nil {
		return nil, syntaxErr(lineno, "unterminated gfd block %q", name)
	}
	return set, nil
}

func syntaxErr(line int, format string, args ...any) error {
	return &SyntaxError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

type ruleBuilder struct {
	q    *pattern.Pattern
	x, y []Literal
}

func parseLiterals(s string, q *pattern.Pattern) ([]Literal, error) {
	parts := splitLiterals(s)
	lits := make([]Literal, 0, len(parts))
	for _, part := range parts {
		l, err := parseLiteral(strings.TrimSpace(part), q)
		if err != nil {
			return nil, err
		}
		lits = append(lits, l)
	}
	return lits, nil
}

// splitLiterals splits on commas that are outside double quotes.
func splitLiterals(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

func parseLiteral(s string, q *pattern.Pattern) (Literal, error) {
	lhs, rhs, ok := cutOutsideQuotes(s, '=')
	if !ok {
		return Literal{}, fmt.Errorf("bad literal %q: missing '='", s)
	}
	lhs, rhs = strings.TrimSpace(lhs), strings.TrimSpace(rhs)
	xv, xa, ok := strings.Cut(lhs, ".")
	if !ok {
		return Literal{}, fmt.Errorf("bad literal %q: left side must be var.attr", s)
	}
	x := pattern.Var(xv)
	if _, declared := q.VarIndex(x); !declared {
		return Literal{}, fmt.Errorf("bad literal %q: unknown variable %q", s, xv)
	}
	// Right side: var.attr if it parses as one and the var is declared;
	// otherwise a constant (quotes stripped).
	if yv, yb, isDotted := strings.Cut(rhs, "."); isDotted && !strings.HasPrefix(rhs, `"`) {
		if _, declared := q.VarIndex(pattern.Var(yv)); declared {
			return VarEq(x, xa, pattern.Var(yv), yb), nil
		}
	}
	if c, err := strconv.Unquote(rhs); err == nil {
		return Const(x, xa, c), nil
	}
	return Const(x, xa, rhs), nil
}

func cutOutsideQuotes(s string, sep byte) (string, string, bool) {
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inQuote = !inQuote
		case sep:
			if !inQuote {
				return s[:i], s[i+1:], true
			}
		}
	}
	return s, "", false
}

// WriteRules serializes the rule set in the ParseRules format.
func WriteRules(w io.Writer, s *Set) error {
	bw := bufio.NewWriter(w)
	for _, f := range s.Rules() {
		fmt.Fprintf(bw, "gfd %s {\n", f.Name)
		for _, n := range f.Q.Nodes {
			fmt.Fprintf(bw, "  node %s %s\n", n.Var, n.Label)
		}
		for _, e := range f.Q.Edges {
			fmt.Fprintf(bw, "  edge %s %s %s\n", f.Q.Nodes[e.From].Var, e.Label, f.Q.Nodes[e.To].Var)
		}
		if len(f.X) > 0 {
			fmt.Fprintf(bw, "  when %s\n", formatLiterals(f.X))
		}
		if len(f.Y) > 0 {
			fmt.Fprintf(bw, "  then %s\n", formatLiterals(f.Y))
		}
		fmt.Fprintln(bw, "}")
	}
	return bw.Flush()
}

func formatLiterals(ls []Literal) string {
	parts := make([]string, len(ls))
	for i, l := range ls {
		if l.Kind == Constant {
			parts[i] = fmt.Sprintf("%s.%s = %q", l.X, l.A, l.C)
		} else {
			parts[i] = fmt.Sprintf("%s.%s = %s.%s", l.X, l.A, l.Y, l.B)
		}
	}
	return strings.Join(parts, ", ")
}

// SortedNames returns rule names in sorted order (stable test output).
func (s *Set) SortedNames() []string {
	names := make([]string, 0, s.Len())
	for _, r := range s.rules {
		names = append(names, r.Name)
	}
	sort.Strings(names)
	return names
}
