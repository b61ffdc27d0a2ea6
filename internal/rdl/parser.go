package rdl

import "rms/internal/expr"

// Parse parses an RDL program and performs the semantic checks that do not
// require reaction-network expansion (duplicate names, rate-constant
// naming conventions, site well-formedness, unbound variables in static
// positions).
func Parse(src string) (*Program, error) {
	toks, err := LexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog, err := p.program()
	if err != nil {
		return nil, err
	}
	if err := check(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) cur() Token {
	if p.pos >= len(p.toks) {
		last := Token{Kind: TokEOF}
		if len(p.toks) > 0 {
			last.Line = p.toks[len(p.toks)-1].Line
			last.Col = p.toks[len(p.toks)-1].Col + 1
		} else {
			last.Line, last.Col = 1, 1
		}
		return last
	}
	return p.toks[p.pos]
}

func (p *parser) next() Token {
	t := p.cur()
	if p.pos < len(p.toks) {
		p.pos++
	}
	return t
}

func (p *parser) expect(k TokKind) (Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, errAt(t.Line, t.Col, "expected %v, found %v", k, t)
	}
	return p.next(), nil
}

func (p *parser) expectKeyword(word string) error {
	t := p.cur()
	if t.Kind != TokIdent || t.Text != word {
		return errAt(t.Line, t.Col, "expected %q, found %v", word, t)
	}
	p.next()
	return nil
}

func (p *parser) atKeyword(word string) bool {
	t := p.cur()
	return t.Kind == TokIdent && t.Text == word
}

func (p *parser) program() (*Program, error) {
	prog := &Program{}
	for p.cur().Kind != TokEOF {
		t := p.cur()
		if t.Kind != TokIdent {
			return nil, errAt(t.Line, t.Col, "expected declaration, found %v", t)
		}
		switch t.Text {
		case "species":
			s, err := p.speciesDecl()
			if err != nil {
				return nil, err
			}
			prog.Species = append(prog.Species, s)
		case "reaction":
			r, err := p.reactionDecl()
			if err != nil {
				return nil, err
			}
			prog.Reactions = append(prog.Reactions, r)
		case "forbid":
			p.next()
			s, err := p.expect(TokString)
			if err != nil {
				return nil, err
			}
			prog.Forbids = append(prog.Forbids, s.Text)
		default:
			return nil, errAt(t.Line, t.Col,
				"expected 'species', 'reaction' or 'forbid', found %q", t.Text)
		}
	}
	return prog, nil
}

func (p *parser) speciesDecl() (*SpeciesDecl, error) {
	start := p.next() // 'species'
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	d := &SpeciesDecl{Name: name.Text, Line: start.Line}
	if p.cur().Kind == TokLBrace {
		p.next()
		v, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokAssign); err != nil {
			return nil, err
		}
		lo, err := p.expect(TokInt)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokDotDot); err != nil {
			return nil, err
		}
		hi, err := p.expect(TokInt)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRBrace); err != nil {
			return nil, err
		}
		d.Var, d.Lo, d.Hi = v.Text, lo.Int, hi.Int
		if d.Lo > d.Hi {
			return nil, errAt(lo.Line, lo.Col, "empty variant range %d..%d", d.Lo, d.Hi)
		}
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	// SMILES template: STRING ( '*' (IDENT|INT) )? ( '+' ... )*
	for {
		s, err := p.expect(TokString)
		if err != nil {
			return nil, err
		}
		part := TemplatePart{Text: s.Text}
		if p.cur().Kind == TokStar {
			p.next()
			rep, err := p.intAtom()
			if err != nil {
				return nil, err
			}
			part.Rep = rep
		}
		d.Template = append(d.Template, part)
		if p.cur().Kind != TokPlus {
			break
		}
		p.next()
	}
	if p.atKeyword("init") {
		p.next()
		t := p.cur()
		switch t.Kind {
		case TokFloat:
			d.Init = t.Num
		case TokInt:
			d.Init = float64(t.Int)
		default:
			return nil, errAt(t.Line, t.Col, "expected number after 'init', found %v", t)
		}
		p.next()
		d.HasInit = true
	}
	return d, nil
}

func (p *parser) reactionDecl() (*ReactionDecl, error) {
	start := p.next() // 'reaction'
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	d := &ReactionDecl{Name: name.Text, Line: start.Line}
	for p.cur().Kind != TokRBrace {
		t := p.cur()
		if t.Kind != TokIdent {
			return nil, errAt(t.Line, t.Col, "expected reaction clause, found %v", t)
		}
		switch t.Text {
		case "reactants":
			p.next()
			for {
				ref, err := p.reactantRef()
				if err != nil {
					return nil, err
				}
				d.Reactants = append(d.Reactants, ref)
				if p.cur().Kind != TokComma {
					break
				}
				p.next()
			}
		case "require":
			p.next()
			c, err := p.cond()
			if err != nil {
				return nil, err
			}
			d.Requires = append(d.Requires, c)
		case "forall":
			p.next()
			v, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokAssign); err != nil {
				return nil, err
			}
			lo, err := p.intExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokDotDot); err != nil {
				return nil, err
			}
			hi, err := p.intExpr()
			if err != nil {
				return nil, err
			}
			d.Foralls = append(d.Foralls, Forall{Var: v.Text, Lo: lo, Hi: hi})
		case "rate":
			p.next()
			r, err := p.rateSpec()
			if err != nil {
				return nil, err
			}
			if d.Rate.Name != "" {
				return nil, errAt(t.Line, t.Col, "duplicate rate clause")
			}
			d.Rate = r
			if p.atKeyword("reverse") {
				p.next()
				rev, err := p.rateSpec()
				if err != nil {
					return nil, err
				}
				d.Reverse = rev
			}
		case "disconnect", "connect", "increase", "decrease":
			p.next()
			a, err := p.site()
			if err != nil {
				return nil, err
			}
			b, err := p.site()
			if err != nil {
				return nil, err
			}
			act := Action{A: a, B: b, Order: 1}
			switch t.Text {
			case "disconnect":
				act.Kind = ActDisconnect
			case "connect":
				act.Kind = ActConnect
				if p.atKeyword("order") {
					p.next()
					o, err := p.expect(TokInt)
					if err != nil {
						return nil, err
					}
					act.Order = o.Int
				}
			case "increase":
				act.Kind = ActIncrease
			case "decrease":
				act.Kind = ActDecrease
			}
			d.Actions = append(d.Actions, act)
		case "removeH", "addH":
			p.next()
			a, err := p.site()
			if err != nil {
				return nil, err
			}
			k := ActRemoveH
			if t.Text == "addH" {
				k = ActAddH
			}
			d.Actions = append(d.Actions, Action{Kind: k, A: a})
		default:
			return nil, errAt(t.Line, t.Col, "unknown reaction clause %q", t.Text)
		}
	}
	p.next() // '}'
	return d, nil
}

func (p *parser) reactantRef() (ReactantRef, error) {
	name, err := p.expect(TokIdent)
	if err != nil {
		return ReactantRef{}, err
	}
	ref := ReactantRef{Species: name.Text}
	if p.cur().Kind == TokLBrace {
		p.next()
		v, err := p.expect(TokIdent)
		if err != nil {
			return ReactantRef{}, err
		}
		if _, err := p.expect(TokRBrace); err != nil {
			return ReactantRef{}, err
		}
		ref.Var = v.Text
	}
	return ref, nil
}

func (p *parser) rateSpec() (RateSpec, error) {
	name, err := p.expect(TokIdent)
	if err != nil {
		return RateSpec{}, err
	}
	r := RateSpec{Name: name.Text}
	if p.cur().Kind == TokLParen {
		p.next()
		for {
			a, err := p.expect(TokIdent)
			if err != nil {
				return RateSpec{}, err
			}
			r.Args = append(r.Args, a.Text)
			if p.cur().Kind != TokComma {
				break
			}
			p.next()
		}
		if _, err := p.expect(TokRParen); err != nil {
			return RateSpec{}, err
		}
	}
	return r, nil
}

// site := INT ':' INT | INT ':' 'S' '[' intExpr ']'
func (p *parser) site() (Site, error) {
	r, err := p.expect(TokInt)
	if err != nil {
		return Site{}, err
	}
	if _, err := p.expect(TokColon); err != nil {
		return Site{}, err
	}
	t := p.cur()
	if t.Kind == TokInt {
		p.next()
		if t.Int <= 0 {
			return Site{}, errAt(t.Line, t.Col, "class labels are positive")
		}
		return Site{Reactant: r.Int, Class: t.Int}, nil
	}
	if t.Kind == TokIdent && t.Text == "S" {
		p.next()
		if _, err := p.expect(TokLBracket); err != nil {
			return Site{}, err
		}
		idx, err := p.intExpr()
		if err != nil {
			return Site{}, err
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return Site{}, err
		}
		return Site{Reactant: r.Int, ChainIdx: idx}, nil
	}
	return Site{}, errAt(t.Line, t.Col, "expected class label or S[index], found %v", t)
}

func (p *parser) cond() (Cond, error) {
	l, err := p.intExpr()
	if err != nil {
		return Cond{}, err
	}
	t := p.cur()
	switch t.Kind {
	case TokLT, TokLE, TokGT, TokGE, TokEQ, TokNE:
		p.next()
	default:
		return Cond{}, errAt(t.Line, t.Col, "expected comparison operator, found %v", t)
	}
	r, err := p.intExpr()
	if err != nil {
		return Cond{}, err
	}
	return Cond{L: l, R: r, Op: t.Kind}, nil
}

// intExpr := term (('+'|'-') term)* ; term := atom ('*' atom)*
func (p *parser) intExpr() (IntExpr, error) {
	l, err := p.intTerm()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokPlus || p.cur().Kind == TokMinus {
		op := p.next().Kind
		r, err := p.intTerm()
		if err != nil {
			return nil, err
		}
		l = BinOp{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) intTerm() (IntExpr, error) {
	l, err := p.intAtom()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokStar {
		p.next()
		r, err := p.intAtom()
		if err != nil {
			return nil, err
		}
		l = BinOp{Op: TokStar, L: l, R: r}
	}
	return l, nil
}

func (p *parser) intAtom() (IntExpr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.next()
		return IntLit(t.Int), nil
	case TokIdent:
		p.next()
		return VarRef(t.Text), nil
	case TokMinus:
		p.next()
		a, err := p.intAtom()
		if err != nil {
			return nil, err
		}
		return BinOp{Op: TokMinus, L: IntLit(0), R: a}, nil
	case TokLParen:
		p.next()
		e, err := p.intExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, errAt(t.Line, t.Col, "expected integer expression, found %v", t)
}

// check performs static semantic validation of a parsed program.
func check(prog *Program) error {
	species := make(map[string]*SpeciesDecl)
	for _, s := range prog.Species {
		if _, dup := species[s.Name]; dup {
			return errAt(s.Line, 1, "duplicate species %q", s.Name)
		}
		if expr.IsRateConstant(s.Name) {
			return errAt(s.Line, 1,
				"species %q uses the rate-constant naming convention (K/k prefix)", s.Name)
		}
		species[s.Name] = s
	}
	names := make(map[string]bool)
	for _, r := range prog.Reactions {
		if names[r.Name] {
			return errAt(r.Line, 1, "duplicate reaction %q", r.Name)
		}
		names[r.Name] = true
		if len(r.Reactants) == 0 {
			return errAt(r.Line, 1, "reaction %q has no reactants", r.Name)
		}
		if len(r.Reactants) > 2 {
			return errAt(r.Line, 1,
				"reaction %q has %d reactants; elementary reactions take at most 2",
				r.Name, len(r.Reactants))
		}
		if r.Rate.Name == "" {
			return errAt(r.Line, 1, "reaction %q has no rate clause", r.Name)
		}
		if !expr.IsRateConstant(r.Rate.Name) {
			return errAt(r.Line, 1,
				"rate constant %q must start with 'K' or 'k' followed by '_' or a digit",
				r.Rate.Name)
		}
		if r.Reverse.Name != "" && !expr.IsRateConstant(r.Reverse.Name) {
			return errAt(r.Line, 1,
				"reverse rate constant %q must start with 'K' or 'k' followed by '_' or a digit",
				r.Reverse.Name)
		}
		if len(r.Actions) == 0 {
			return errAt(r.Line, 1, "reaction %q has no actions", r.Name)
		}
		bound := make(map[string]bool)
		for _, ref := range r.Reactants {
			sd, ok := species[ref.Species]
			if !ok {
				return errAt(r.Line, 1, "reaction %q: unknown species %q", r.Name, ref.Species)
			}
			if ref.Var != "" {
				if sd.Var == "" {
					return errAt(r.Line, 1,
						"reaction %q: species %q has no variants to bind", r.Name, ref.Species)
				}
				if bound[ref.Var] {
					return errAt(r.Line, 1, "reaction %q: variable %q bound twice", r.Name, ref.Var)
				}
				bound[ref.Var] = true
			}
		}
		for _, f := range r.Foralls {
			if bound[f.Var] {
				return errAt(r.Line, 1, "reaction %q: variable %q bound twice", r.Name, f.Var)
			}
			bound[f.Var] = true
		}
		for _, a := range r.Actions {
			for _, s := range []Site{a.A, a.B} {
				if s.Reactant == 0 && s.Class == 0 && s.ChainIdx == nil {
					continue // unused B site of an H action
				}
				if s.Reactant < 1 || s.Reactant > len(r.Reactants) {
					return errAt(r.Line, 1,
						"reaction %q: site %v references reactant %d of %d",
						r.Name, s, s.Reactant, len(r.Reactants))
				}
			}
			if a.Kind == ActConnect && (a.Order < 1 || a.Order > 3) {
				return errAt(r.Line, 1, "reaction %q: bad bond order %d", r.Name, a.Order)
			}
		}
		for _, arg := range append(append([]string{}, r.Rate.Args...), r.Reverse.Args...) {
			if !bound[arg] {
				return errAt(r.Line, 1, "reaction %q: rate argument %q unbound", r.Name, arg)
			}
		}
	}
	return nil
}
