package graph

// Interner maps strings to dense small integer identifiers and back.
// It is used for predicate names and entity type names, which repeat
// heavily across the triples of a graph. The zero value is not usable;
// call NewInterner.
type Interner struct {
	ids   map[string]int32
	names []string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]int32)}
}

// Intern returns the identifier for s, assigning a fresh one if s has
// not been seen before.
func (in *Interner) Intern(s string) int32 {
	if id, ok := in.ids[s]; ok {
		return id
	}
	id := int32(len(in.names))
	in.ids[s] = id
	in.names = append(in.names, s)
	return id
}

// internBytes is Intern for a name held in a byte slice: the string is
// allocated only when the name is new.
func (in *Interner) internBytes(b []byte) int32 {
	if id, ok := in.ids[string(b)]; ok {
		return id
	}
	return in.Intern(string(b))
}

// Lookup returns the identifier for s and whether s has been interned.
func (in *Interner) Lookup(s string) (int32, bool) {
	id, ok := in.ids[s]
	return id, ok
}

// Name returns the string for id. It panics if id was never assigned.
func (in *Interner) Name(id int32) string { return in.names[id] }

// Len reports the number of distinct strings interned.
func (in *Interner) Len() int { return len(in.names) }
