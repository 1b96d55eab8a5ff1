// Package tunelang implements the tunability language extensions of
// Section 4.2 — task_control_parameters, task, task_select, task_loop —
// as a standalone declarative language.  The paper embeds these constructs
// in Calypso/C++ source and derives the application's QoS agent with a
// preprocessor; here the same constructs are parsed into a
// taskgraph.Graph, from which the QoS agent enumerates execution paths.
//
// Grammar (paper syntax, with braces instead of the *end keywords):
//
//	program  = { params | step } .
//	params   = "task_control_parameters" "{" { ident [ "=" number ] ";" } "}" .
//	step     = task | select | loop | par .
//	task     = "task" ident "deadline" number [ "params" "(" idents ")" ]
//	           "{" { config } "}" .
//	config   = "config" [ "(" assigns ")" ] "require" number "procs"
//	           number "time" [ "quality" number ] ";"
//	         | "config" "range" "(" ident "=" number ".." number "step"
//	           number ")" "require" expr "procs" expr "time"
//	           [ "quality" expr ] ";" .
//	select   = "task_select" [ ident ] "{" { arm } "}" .
//	arm      = "when" "(" expr ")" "{" { step } "}"
//	           [ "finally" "{" { ident "=" expr ";" } "}" ] .
//	loop     = "task_loop" [ ident ] "(" expr ")" "{" { step } "}" .
//	par      = "task_par" [ ident ] "{" step step { step } "}" .
//
// Expressions use C syntax over constants and control parameters with
// operators || && == != < <= > >= + - * / and unary ! -.
package tunelang

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokKind classifies tokens.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokPunct // single or multi-rune punctuation/operator
)

// token is one lexeme with its source position.
type token struct {
	kind tokKind
	text string
	num  float64 // valid for tokNumber
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokNumber:
		return fmt.Sprintf("number %s", t.text)
	case tokIdent:
		return fmt.Sprintf("identifier %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// syntaxError is a positioned parse error.
type syntaxError struct {
	Line, Col int
	Msg       string
}

// Error implements error.
func (e *syntaxError) Error() string { return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg) }

// lexer turns source text into tokens.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

// multi-rune operators, longest first.
var operators = []string{"==", "!=", "<=", ">=", "&&", "||"}

// errorf builds a positioned error at the lexer's current location.
func (l *lexer) errorf(format string, args ...interface{}) *syntaxError {
	return &syntaxError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// skipSpace consumes whitespace and // and /* */ comments.
func (l *lexer) skipSpace() error {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			start := *l
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peekByte() == '*' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return &syntaxError{Line: start.line, Col: start.col, Msg: "unterminated block comment"}
			}
		default:
			return nil
		}
	}
	return nil
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	if err := l.skipSpace(); err != nil {
		return token{}, err
	}
	tk := token{line: l.line, col: l.col}
	if l.pos >= len(l.src) {
		tk.kind = tokEOF
		return tk, nil
	}
	c := l.peekByte()
	switch {
	case isIdentStart(rune(c)):
		var sb strings.Builder
		for l.pos < len(l.src) && isIdentPart(rune(l.peekByte())) {
			sb.WriteByte(l.advance())
		}
		tk.kind = tokIdent
		tk.text = sb.String()
		return tk, nil
	case c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '.':
		l.advance()
		l.advance()
		tk.kind = tokPunct
		tk.text = ".."
		return tk, nil
	case c >= '0' && c <= '9' || c == '.':
		var sb strings.Builder
		seenDot := false
		for l.pos < len(l.src) {
			b := l.peekByte()
			if b == '.' {
				if seenDot || (l.pos+1 < len(l.src) && l.src[l.pos+1] == '.') {
					break // a second dot, or the ".." range operator
				}
				seenDot = true
			} else if b < '0' || b > '9' {
				break
			}
			sb.WriteByte(l.advance())
		}
		text := sb.String()
		num, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token{}, &syntaxError{Line: tk.line, Col: tk.col, Msg: fmt.Sprintf("bad number %q", text)}
		}
		tk.kind = tokNumber
		tk.text = text
		tk.num = num
		return tk, nil
	default:
		for _, op := range operators {
			if strings.HasPrefix(l.src[l.pos:], op) {
				l.advance()
				l.advance()
				tk.kind = tokPunct
				tk.text = op
				return tk, nil
			}
		}
		switch c {
		case '{', '}', '(', ')', ';', ',', '=', '<', '>', '+', '-', '*', '/', '!':
			l.advance()
			tk.kind = tokPunct
			tk.text = string(c)
			return tk, nil
		}
		return token{}, l.errorf("unexpected character %q", string(c))
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// lexAll tokenizes the whole input (including the trailing EOF token).
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var out []token
	for {
		tk, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, tk)
		if tk.kind == tokEOF {
			return out, nil
		}
	}
}
