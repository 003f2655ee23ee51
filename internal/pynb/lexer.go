package pynb

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// SyntaxError reports a lexing or parsing failure with position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("pynb: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

func errAt(line, col int, format string, args ...any) error {
	return &SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// unsupported refuses a construct the language leaves out, by name.
func unsupported(line, col int, what string) error {
	return errAt(line, col, "unsupported construct: %s", what)
}

// Lex tokenizes source code. A line that starts with whitespace outside
// brackets is refused: the language has no blocks. So is a cell that is not
// UTF-8, as Python refuses one: its strings could not replicate intact.
func Lex(src string) ([]Token, error) {
	if !utf8.ValidString(src) {
		return nil, errAt(1, 1, "source is not valid UTF-8")
	}
	l := &lexer{src: src, line: 1, col: 1}
	if err := l.run(); err != nil {
		return nil, err
	}
	return l.toks, nil
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
	toks []Token
	// parenDepth tracks bracket nesting: newlines inside brackets are
	// insignificant, as in Python.
	parenDepth int
}

func (l *lexer) run() error {
	lineStart := true
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			if l.parenDepth == 0 {
				// Collapse blank lines: only a line with content ends in NEWLINE.
				if n := len(l.toks); n > 0 && l.toks[n-1].Kind != TokNewline {
					l.emit(TokNewline, "\n")
				}
				lineStart = true
			}
			l.pos++
			l.line++
			l.col = 1
			continue
		case c == ' ' || c == '\t' || c == '\r':
			l.advance(1)
			continue
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
			continue
		}
		if lineStart && l.parenDepth == 0 && l.col > 1 {
			return unsupported(l.line, l.col, "indented line")
		}
		lineStart = false
		var err error
		switch {
		case isDigit(c):
			err = l.lexNumber()
		case c == '"' || c == '\'':
			err = l.lexString(c)
		case isIdentStart(c):
			err = l.lexIdent()
		default:
			err = l.lexOperator()
		}
		if err != nil {
			return err
		}
	}
	if n := len(l.toks); n > 0 && l.toks[n-1].Kind != TokNewline {
		l.emit(TokNewline, "\n")
	}
	l.emit(TokEOF, "")
	return nil
}

// advance moves over n bytes of one line.
func (l *lexer) advance(n int) {
	l.pos += n
	l.col += n
}

func (l *lexer) emit(kind TokKind, text string) {
	l.toks = append(l.toks, Token{Kind: kind, Text: text, Line: l.line, Col: l.col})
}

func (l *lexer) lexNumber() error {
	startLine, startCol := l.line, l.col
	start := l.pos
	isFloat := false
	for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.' || l.src[l.pos] == '_') {
		if l.src[l.pos] == '.' {
			if isFloat {
				return errAt(l.line, l.col, "malformed number")
			}
			// A trailing '.' followed by an identifier is attribute access
			// on an int literal; we do not support that, so require digits.
			if l.pos+1 >= len(l.src) || !isDigit(l.src[l.pos+1]) {
				break
			}
			isFloat = true
		}
		l.advance(1)
	}
	text := strings.ReplaceAll(l.src[start:l.pos], "_", "")
	kind := TokInt
	if isFloat {
		kind = TokFloat
	}
	l.toks = append(l.toks, Token{Kind: kind, Text: text, Line: startLine, Col: startCol})
	return nil
}

func (l *lexer) lexString(quote byte) error {
	startLine, startCol := l.line, l.col
	l.advance(1) // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case quote:
			l.advance(1)
			l.toks = append(l.toks, Token{Kind: TokString, Text: b.String(), Line: startLine, Col: startCol})
			return nil
		case '\n':
			return errAt(startLine, startCol, "unterminated string")
		case '\\':
			if l.pos+1 >= len(l.src) {
				return errAt(l.line, l.col, "dangling escape")
			}
			esc := l.src[l.pos+1]
			switch esc {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '\\', '\'', '"':
				b.WriteByte(esc)
			default:
				return errAt(l.line, l.col, "unknown escape \\%c", esc)
			}
			l.advance(2)
		default:
			b.WriteByte(c)
			l.advance(1)
		}
	}
	return errAt(startLine, startCol, "unterminated string")
}

func (l *lexer) lexIdent() error {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	text := l.src[start:l.pos]
	if what, ok := keywords[text]; ok {
		return unsupported(l.line, l.col, what)
	}
	l.emit(TokIdent, text)
	l.col += len(text)
	return nil
}

func (l *lexer) lexOperator() error {
	rest := l.src[l.pos:]
	for _, r := range refusedOps {
		if strings.HasPrefix(rest, r.op) {
			return unsupported(l.line, l.col, r.what)
		}
	}
	c := rest[0]
	if strings.IndexByte(operators, c) < 0 {
		return errAt(l.line, l.col, "unexpected character %q", rest[:1])
	}
	switch c {
	case '(', '[':
		l.parenDepth++
	case ')', ']':
		l.parenDepth = max(l.parenDepth-1, 0)
	}
	l.emit(TokOp, rest[:1])
	l.advance(1)
	return nil
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }
