// Package core is the elaboration step between the parser and the engines:
// it turns a parsed module into a System, the module plus the evaluation
// environment (sampled domains, constants, definitions) and the assertion
// function registry every engine runs against. The questions the paper
// asks of a System — traces, P sat R, refinement, proofs, failures — are
// answered by pkg/csp, this package's only importer.
package core

import (
	"fmt"

	"cspsat/internal/assertion"
	"cspsat/internal/parser"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
)

// Options configure a System.
type Options struct {
	// NatWidth is the enumeration width of the infinite NAT domain in the
	// finite-branching engines. Zero means value.DefaultNatSample.
	NatWidth int
	// Funcs supplies the registered assertion functions; nil means the
	// default registry (which includes the paper's protocol function f).
	Funcs *assertion.Registry
}

// System is a loaded module plus everything needed to analyse it.
type System struct {
	Module  *syntax.Module
	Asserts []parser.AssertDecl

	env   sem.Env
	funcs *assertion.Registry
}

// Load parses a .csp source text into a System.
func Load(src string, opts Options) (*System, error) {
	f, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	sys := FromModule(f.Module, opts)
	sys.Asserts = f.Asserts
	return sys, nil
}

// FromModule wraps an already-constructed module.
func FromModule(m *syntax.Module, opts Options) *System {
	funcs := opts.Funcs
	if funcs == nil {
		funcs = assertion.NewRegistry()
	}
	return &System{
		Module: m,
		env:    sem.NewEnv(m, opts.NatWidth),
		funcs:  funcs,
	}
}

// Env returns the system's evaluation environment.
func (s *System) Env() sem.Env { return s.env }

// Funcs returns the system's assertion-function registry.
func (s *System) Funcs() *assertion.Registry { return s.funcs }

// Proc returns a reference to a defined process; it fails if the name is
// not defined (or is a process array, which needs a subscript).
func (s *System) Proc(name string) (syntax.Proc, error) {
	def, ok := s.Module.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("core: process %q not defined", name)
	}
	if def.IsArray() {
		return nil, fmt.Errorf("core: %q is a process array; use ProcIdx", name)
	}
	return syntax.Ref{Name: name}, nil
}

// ProcIdx returns a reference to an element of a process array.
func (s *System) ProcIdx(name string, idx int64) (syntax.Proc, error) {
	def, ok := s.Module.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("core: process %q not defined", name)
	}
	if !def.IsArray() {
		return nil, fmt.Errorf("core: %q is not a process array", name)
	}
	return syntax.Ref{Name: name, Sub: syntax.IntLit{Val: idx}}, nil
}
