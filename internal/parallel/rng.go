package parallel

// Splitmix64 is the 64-bit mixing function from Steele et al. (splitmix64).
// It is the deterministic hash behind every random choice in this repository:
// RC-tree contraction priorities, treap priorities, workload generators. Using a
// pure mix function (rather than stateful RNG streams) makes every parallel
// algorithm's random choices independent of execution order.
func Splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash2 mixes two words into one, for keyed random choices.
func Hash2(a, b uint64) uint64 {
	return Splitmix64(a ^ Splitmix64(b))
}

// Hash3 mixes three words.
func Hash3(a, b, c uint64) uint64 {
	return Splitmix64(a ^ Hash2(b, c))
}

// RNG is a tiny deterministic generator (splitmix64 stream) for sequential
// workload generation.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Next returns the next 64-bit value.
func (r *RNG) Next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	x := r.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("parallel: Intn with non-positive n")
	}
	return int(r.Next() % uint64(n))
}

// Int63 returns a non-negative int64.
func (r *RNG) Int63() int64 { return int64(r.Next() >> 1) }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Next()>>11) / float64(1<<53)
}
