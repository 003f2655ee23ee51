package pynb

import "fmt"

// TokKind classifies lexical tokens.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokNewline
	TokIdent
	TokInt
	TokFloat
	TokString
	TokOp
)

var kindNames = [...]string{"EOF", "NEWLINE", "IDENT", "INT", "FLOAT", "STRING", "OP"}

// String names the kind.
func (k TokKind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("TokKind(%d)", int(k))
}

// Token is one lexical token with its source position.
type Token struct {
	Kind TokKind
	Text string
	Line int
	Col  int
}

func (t Token) String() string {
	return fmt.Sprintf("%s(%q)@%d:%d", t.Kind, t.Text, t.Line, t.Col)
}

// keywords are Python's keywords the language leaves out, each with the
// construct it opens; the lexer refuses every one.
var keywords = map[string]string{
	"if": "if statement", "elif": "elif clause", "else": "else clause",
	"for": "for loop", "pass": "pass statement", "break": "break statement",
	"continue": "continue statement", "in": "membership test (in)",
	"and": "boolean operator (and)", "or": "boolean operator (or)", "not": "boolean operator (not)",
	"True": "literal True", "False": "literal False", "None": "literal None",
}

// refusedOps are Python's operators the language leaves out, longest first
// so "**" is not read as "*" and "<=" not as "<".
var refusedOps = []struct{ op, what string }{
	{"**", "operator **"}, {"//", "operator //"},
	{"+=", "augmented assignment (+=)"}, {"-=", "augmented assignment (-=)"},
	{"*=", "augmented assignment (*=)"}, {"/=", "augmented assignment (/=)"},
	{"==", "comparison (==)"}, {"!=", "comparison (!=)"},
	{"<=", "comparison (<=)"}, {">=", "comparison (>=)"},
	{"<", "comparison (<)"}, {">", "comparison (>)"}, {"%", "operator %"},
}

// operators are the language's own, one character each.
const operators = "+-*/=()[],."
