package mem

// Finder resolves addresses to objects with its own last-hit cache, so
// each sampler thread attributes its accesses without touching
// Space.lastObj. Results are identical to Space.FindObject: the cache is
// pure memoization.
type Finder struct {
	space *Space
	last  *Object
}

// NewFinder returns an address→object resolver private to one thread.
func (s *Space) NewFinder() *Finder { return &Finder{space: s} }

// Find resolves an effective address to the object containing it, or nil.
func (f *Finder) Find(addr uint64) *Object {
	if o := f.last; o != nil && addr >= o.Base && addr < o.Base+o.Size {
		return o
	}
	o := f.space.findSorted(addr)
	if o != nil {
		f.last = o
	}
	return o
}
