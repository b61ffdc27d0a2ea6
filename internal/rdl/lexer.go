package rdl

import (
	"strconv"
	"strings"
)

// Lexer turns RDL source text into tokens. '#' starts a comment running to
// end of line. Newlines are not tokens; the grammar is delimiter-based.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *Lexer) advance() byte {
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

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.peek()
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
			l.advance()
			continue
		}
		if c == '#' {
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
			continue
		}
		break
	}
}

// IsIdentifier reports whether name is one whole RDL identifier: a
// letter or '_', then letters, digits or '_'.
func IsIdentifier(name string) bool {
	if name == "" || !isIdentStart(name[0]) {
		return false
	}
	for i := 1; i < len(name); i++ {
		if !isIdentCont(name[i]) {
			return false
		}
	}
	return true
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token, or an *Error on malformed input.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Line: line, Col: col}, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentCont(l.peek()) {
			l.advance()
		}
		return Token{Kind: TokIdent, Text: l.src[start:l.pos], Line: line, Col: col}, nil
	case isDigit(c):
		return l.number(line, col)
	case c == '"':
		return l.stringLit(line, col)
	}
	l.advance()
	simple := func(k TokKind) (Token, error) {
		return Token{Kind: k, Line: line, Col: col}, nil
	}
	switch c {
	case '{':
		return simple(TokLBrace)
	case '}':
		return simple(TokRBrace)
	case '(':
		return simple(TokLParen)
	case ')':
		return simple(TokRParen)
	case '[':
		return simple(TokLBracket)
	case ']':
		return simple(TokRBracket)
	case ',':
		return simple(TokComma)
	case ':':
		return simple(TokColon)
	case '+':
		return simple(TokPlus)
	case '-':
		return simple(TokMinus)
	case '*':
		return simple(TokStar)
	case ';':
		// Semicolons are optional statement terminators; skip and recurse.
		return l.Next()
	case '=':
		if l.peek() == '=' {
			l.advance()
			return simple(TokEQ)
		}
		return simple(TokAssign)
	case '<':
		if l.peek() == '=' {
			l.advance()
			return simple(TokLE)
		}
		return simple(TokLT)
	case '>':
		if l.peek() == '=' {
			l.advance()
			return simple(TokGE)
		}
		return simple(TokGT)
	case '!':
		if l.peek() == '=' {
			l.advance()
			return simple(TokNE)
		}
		return Token{}, errAt(line, col, "unexpected '!'")
	case '.':
		if l.peek() == '.' {
			l.advance()
			return simple(TokDotDot)
		}
		return Token{}, errAt(line, col, "unexpected '.' (ranges use '..')")
	}
	return Token{}, errAt(line, col, "unexpected character %q", string(c))
}

// number lexes an integer or float; "3..5" lexes as INT DOTDOT INT.
func (l *Lexer) number(line, col int) (Token, error) {
	start := l.pos
	for l.pos < len(l.src) && isDigit(l.peek()) {
		l.advance()
	}
	isFloat := false
	if l.peek() == '.' && l.peek2() != '.' && isDigit(l.peek2()) {
		isFloat = true
		l.advance()
		for l.pos < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		save := l.pos
		l.advance()
		if l.peek() == '+' || l.peek() == '-' {
			l.advance()
		}
		if isDigit(l.peek()) {
			isFloat = true
			for l.pos < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		} else {
			l.pos = save // 'e' begins an identifier, not an exponent
		}
	}
	text := l.src[start:l.pos]
	if isFloat {
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Token{}, errAt(line, col, "malformed number %q", text)
		}
		return Token{Kind: TokFloat, Num: v, Line: line, Col: col}, nil
	}
	v, err := strconv.Atoi(text)
	if err != nil {
		return Token{}, errAt(line, col, "malformed integer %q", text)
	}
	return Token{Kind: TokInt, Int: v, Line: line, Col: col}, nil
}

func (l *Lexer) stringLit(line, col int) (Token, error) {
	l.advance() // opening quote
	var sb strings.Builder
	for {
		if l.pos >= len(l.src) {
			return Token{}, errAt(line, col, "unterminated string")
		}
		c := l.advance()
		if c == '"' {
			break
		}
		if c == '\n' {
			return Token{}, errAt(line, col, "newline in string")
		}
		if c == '\\' {
			if l.pos >= len(l.src) {
				return Token{}, errAt(line, col, "unterminated escape")
			}
			e := l.advance()
			switch e {
			case '"', '\\':
				sb.WriteByte(e)
			default:
				return Token{}, errAt(line, col, "unknown escape '\\%c'", e)
			}
			continue
		}
		sb.WriteByte(c)
	}
	return Token{Kind: TokString, Text: sb.String(), Line: line, Col: col}, nil
}

// LexAll tokenizes the whole source, excluding the trailing EOF token.
func LexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	var toks []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == TokEOF {
			return toks, nil
		}
		toks = append(toks, t)
	}
}
