// Package lockguard exercises the cache-lock analyzer on a miniature memo
// engine: guarded map reads need at least RLock, writes need Lock, and
// mutex-bearing structs must not be copied by value.
package lockguard

import "sync"

type key struct{ k int }

type Engine struct {
	mu    sync.RWMutex
	cache map[key]int
}

// Good follows the probe/compute/store discipline exactly.
func (e *Engine) Good(k key) int {
	e.mu.RLock()
	v, ok := e.cache[k]
	e.mu.RUnlock()
	if ok {
		return v
	}
	e.mu.Lock()
	if e.cache == nil {
		e.cache = make(map[key]int)
	}
	e.cache[k] = 42
	e.mu.Unlock()
	return 42
}

func (e *Engine) DirtyRead(k key) int {
	return e.cache[k] // want "read of guarded cache field Engine.cache outside its mutex"
}

func (e *Engine) DirtyWrite(k key) {
	e.mu.RLock()
	e.cache[k] = 1 // want "write to guarded cache field Engine.cache without the write lock"
	e.mu.RUnlock()
}

func (e Engine) ByValue() {} // want "value receiver of ByValue copies a mutex-bearing struct"

func Snapshot(e Engine) int { // want "parameter of Snapshot copies a mutex-bearing struct"
	return 0
}

// ByPointer is fine: the lock travels with the state it guards.
func ByPointer(e *Engine) {}

// Memo is generic: inside its methods the receiver and its fields are
// instantiations of the declarations, and are checked all the same.
type Memo[V any] struct {
	mu      sync.Mutex
	entries map[key]V
}

func (m *Memo[V]) Peek(k key) V {
	return m.entries[k] // want "read of guarded cache field Memo.entries outside its mutex"
}

// Held keeps the lock until it returns: a deferred unlock runs at
// function exit, after the read.
func (e *Engine) Held(k key) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cache[k]
}
