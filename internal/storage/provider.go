package storage

import (
	"path/filepath"
	"sync"
)

// MemProvider hands out in-memory backends keyed by name. The same
// name always returns the same backend, so an in-process "restart"
// that reopens its storage finds its records — memory standing in for
// a disk that survived the crash.
type MemProvider struct {
	mu       sync.Mutex
	factory  func() Automaton
	backends map[string]*Memory
}

// NewMemProvider creates a memory provider; factory configures
// compaction for each opened backend (nil disables it).
func NewMemProvider(factory func() Automaton) *MemProvider {
	return &MemProvider{factory: factory, backends: make(map[string]*Memory)}
}

// Open implements Provider.
func (p *MemProvider) Open(name string) (Backend, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b, ok := p.backends[name]; ok {
		return b, nil
	}
	b := NewMemory(p.factory)
	p.backends[name] = b
	return b, nil
}

// DirProvider opens file backends in per-name subdirectories of a
// root directory: the deployment's data directory, one WAL per server
// process.
type DirProvider struct {
	root    string
	factory func() Automaton
	opts    []FileOption
}

// NewDirProvider creates a file provider rooted at root.
func NewDirProvider(root string, factory func() Automaton, opts ...FileOption) *DirProvider {
	return &DirProvider{root: root, factory: factory, opts: opts}
}

// Open implements Provider. Each call reopens the directory and runs
// crash recovery (torn-tail truncation), like a restarted process.
func (p *DirProvider) Open(name string) (Backend, error) {
	return NewFile(filepath.Join(p.root, name), p.factory, p.opts...)
}

// ProviderFunc adapts a function to Provider; a server with its own
// data directory opens that directory whatever the name.
type ProviderFunc func(name string) (Backend, error)

// Open implements Provider.
func (f ProviderFunc) Open(name string) (Backend, error) { return f(name) }

// FaultProvider wraps another provider so every opened backend is
// fault-injectable, retaining the wrappers by name for the chaos
// engine to arm on schedule.
type FaultProvider struct {
	mu     sync.Mutex
	inner  Provider
	faults map[string]*Fault
}

// NewFaultProvider wraps a provider with fault injection.
func NewFaultProvider(inner Provider) *FaultProvider {
	return &FaultProvider{inner: inner, faults: make(map[string]*Fault)}
}

// Open implements Provider.
func (p *FaultProvider) Open(name string) (Backend, error) {
	b, err := p.inner.Open(name)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	f := NewFault(b)
	p.faults[name] = f
	return f, nil
}

// Fault returns the fault wrapper last opened under name, or nil.
func (p *FaultProvider) Fault(name string) *Fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.faults[name]
}
