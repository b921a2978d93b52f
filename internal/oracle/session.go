package oracle

import "fmt"

// ChannelStats quantifies an attack's use of the oracle access channel —
// the scan in – capture – scan out interface the paper argues is the
// asset to protect. A Session maintains these counters; experiment
// tables and the orapattack command report them.
type ChannelStats struct {
	// Queries is the number of patterns asked through the session,
	// including patterns answered from the transcript cache.
	Queries int
	// Unique is the number of distinct patterns ever admitted to the
	// underlying oracle.
	Unique int
	// CacheHits counts patterns answered from the transcript without
	// touching the chip (repeated DIP confirmations, resampled rounds).
	CacheHits int
	// OracleCalls counts interface crossings that reached the wrapped
	// oracle; BatchCalls counts how many of those were word-level
	// (up-to-64-pattern) crossings.
	OracleCalls int
	BatchCalls  int
	// ScanCycles is the modeled test-clock cost of the admitted queries:
	// 2·chain-length+1 clocks per query on a scan-protocol oracle, one
	// capture clock on the ideal direct oracle, zero when the wrapped
	// oracle models no channel cost.
	ScanCycles int64
}

// HitRate returns the fraction of session queries answered from the
// transcript cache.
func (s ChannelStats) HitRate() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.Queries)
}

// Session wraps an oracle into a stateful attack session over the access
// channel. It memoises the query transcript (SAT-family attacks
// re-confirm DIPs and AppSAT re-samples across rounds, so repeated
// patterns are common), enforces a centralized query budget counting
// only the queries it admits, and keeps ChannelStats telemetry. Session
// itself implements WordOracle, so it drops in front of any attack; when
// the wrapped oracle has a word channel, cache misses are forwarded in
// compacted batches.
type Session struct {
	o    Oracle
	w    WordOracle // non-nil when o exposes the word-level channel
	cost int64      // modeled cycles per admitted query (0 = unmodeled)

	max      int // admitted-query budget (0 = unlimited)
	admitted int

	cache map[string][]bool
	stats ChannelStats
}

var _ WordOracle = (*Session)(nil)

// ErrBudget reports that a Session's query budget is exhausted.
var ErrBudget = fmt.Errorf("oracle: query budget exhausted")

// NewSession opens a session over o. maxQueries bounds the queries the
// session admits to the underlying oracle (0 = unlimited); transcript
// cache hits are free — they need no chip access.
func NewSession(o Oracle, maxQueries int) *Session {
	s := &Session{o: o, max: maxQueries, cache: make(map[string][]bool)}
	if w, ok := o.(WordOracle); ok {
		s.w = w
	}
	if c, ok := o.(ChannelCost); ok {
		s.cost = c.QueryCycles()
	}
	return s
}

// NumInputs implements Oracle.
func (s *Session) NumInputs() int { return s.o.NumInputs() }

// NumOutputs implements Oracle.
func (s *Session) NumOutputs() int { return s.o.NumOutputs() }

// Queries implements Oracle: the number of patterns asked through the
// session, cache hits included — the attack's view of its own query
// count, independent of memoisation.
func (s *Session) Queries() int { return s.stats.Queries }

// Admitted returns how many queries reached the underlying oracle.
func (s *Session) Admitted() int { return s.admitted }

// Stats returns a snapshot of the session's channel telemetry.
func (s *Session) Stats() ChannelStats { return s.stats }

// transcriptKey packs a pattern into a compact map key.
func transcriptKey(x []bool) string {
	b := make([]byte, (len(x)+7)/8)
	for i, v := range x {
		if v {
			b[i/8] |= 1 << uint(i%8)
		}
	}
	return string(b)
}

// Query implements Oracle with transcript memoisation and budgeting.
func (s *Session) Query(x []bool) ([]bool, error) {
	if len(x) != s.o.NumInputs() {
		return nil, fmt.Errorf("oracle: query width %d != oracle inputs %d", len(x), s.o.NumInputs())
	}
	k := transcriptKey(x)
	if y, ok := s.cache[k]; ok {
		s.stats.Queries++
		s.stats.CacheHits++
		return append([]bool(nil), y...), nil
	}
	if s.max > 0 && s.admitted >= s.max {
		return nil, ErrBudget
	}
	y, err := s.o.Query(x)
	if err != nil {
		return nil, err
	}
	s.admitted++
	s.stats.Queries++
	s.stats.Unique++
	s.stats.OracleCalls++
	s.stats.ScanCycles += s.cost
	s.cache[k] = append([]bool(nil), y...)
	return y, nil
}

// QueryWords implements WordOracle. Lanes found in the transcript (or
// repeated within the batch) are served from cache; the remaining misses
// are compacted into one sub-batch and forwarded — through the wrapped
// oracle's word channel when it has one, as scalar queries otherwise.
// The budget is checked against the whole miss set before any lane is
// admitted, so a rejected batch leaves the session unchanged.
func (s *Session) QueryWords(in []uint64, n int) ([]uint64, error) {
	if err := checkBatch(s.o, in, n); err != nil {
		return nil, err
	}
	ni, no := s.o.NumInputs(), s.o.NumOutputs()

	// Classify lanes against the transcript without touching stats yet.
	sub := make([]int, n) // lane → sub-batch lane, or -1 when cached
	keys := make([]string, n)
	subLane := make(map[string]int)
	missIn := make([]uint64, ni)
	misses, dupHits := 0, 0
	x := make([]bool, ni)
	for p := 0; p < n; p++ {
		UnpackPattern(in, p, x)
		k := transcriptKey(x)
		keys[p] = k
		if _, ok := s.cache[k]; ok {
			sub[p] = -1
			continue
		}
		if j, ok := subLane[k]; ok {
			sub[p] = j // duplicate within the batch: rides the same access
			dupHits++
			continue
		}
		j := misses
		misses++
		subLane[k] = j
		sub[p] = j
		PackPattern(missIn, j, x)
	}

	var missOut []uint64
	if misses > 0 {
		if s.max > 0 && s.admitted+misses > s.max {
			return nil, ErrBudget
		}
		var err error
		if s.w != nil {
			missOut, err = s.w.QueryWords(missIn, misses)
			s.stats.BatchCalls++
			s.stats.OracleCalls++
		} else {
			missOut, err = QueryWords(scalarOnly{s.o}, missIn, misses)
			s.stats.OracleCalls += misses
		}
		if err != nil {
			return nil, err
		}
		s.admitted += misses
		s.stats.Unique += misses
		s.stats.ScanCycles += int64(misses) * s.cost
		y := make([]bool, no)
		for k, j := range subLane {
			UnpackPattern(missOut, j, y)
			s.cache[k] = append([]bool(nil), y...)
		}
	}

	out := make([]uint64, no)
	for p := 0; p < n; p++ {
		if j := sub[p]; j >= 0 {
			bit := uint64(1) << uint(p)
			for i := range out {
				if missOut[i]>>uint(j)&1 == 1 {
					out[i] |= bit
				}
			}
		} else {
			PackPattern(out, p, s.cache[keys[p]])
			s.stats.CacheHits++
		}
	}
	s.stats.Queries += n
	s.stats.CacheHits += dupHits
	return out, nil
}
