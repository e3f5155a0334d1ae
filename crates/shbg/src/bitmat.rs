//! A dense bit matrix for transitive-closure computation.
//!
//! The closure is computed by **SCC condensation**: Tarjan's algorithm
//! shrinks the edge relation to its strongly-connected components, and
//! the condensation (a DAG) is closed in place, in reverse topological
//! order. Each component's closed row is built in one row-sized
//! accumulator from its members' direct edges and its successors'
//! already-closed rows, then copied into every member's row. On the
//! acyclic happens-before graphs the SHBG produces, this is one linear
//! pass plus one row OR per condensation edge, with scratch linear in
//! the node count rather than a second matrix.

/// An `n × n` boolean matrix backed by `u64` words.
///
/// # Index contract
///
/// Both [`BitMatrix::set`] and [`BitMatrix::get`] **panic** when an
/// index is `>= len()`. (Earlier versions silently returned `false`
/// from `get`, which let out-of-range action ids read as "unordered"
/// instead of surfacing the bug.)
#[derive(Debug, Clone)]
pub struct BitMatrix {
    n: usize,
    words: usize,
    rows: Vec<u64>,
}

impl BitMatrix {
    /// Creates an all-false `n × n` matrix.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        Self {
            n,
            words,
            rows: vec![0; n * words],
        }
    }

    /// Matrix dimension.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is zero-dimensional.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sets `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn set(&mut self, a: usize, b: usize) {
        assert!(
            a < self.n && b < self.n,
            "BitMatrix::set({a}, {b}) out of range for n={}",
            self.n
        );
        self.rows[a * self.words + b / 64] |= 1 << (b % 64);
    }

    /// Reads `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range (same contract as [`set`](Self::set)).
    pub fn get(&self, a: usize, b: usize) -> bool {
        assert!(
            a < self.n && b < self.n,
            "BitMatrix::get({a}, {b}) out of range for n={}",
            self.n
        );
        self.rows[a * self.words + b / 64] & (1 << (b % 64)) != 0
    }

    /// Iterates over the set bits of row `a`, ascending, without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range (same contract as [`get`](Self::get);
    /// previously this surfaced only as an opaque slice-index panic).
    pub fn row_bits(&self, a: usize) -> RowBits<'_> {
        assert!(
            a < self.n,
            "BitMatrix::row_bits({a}) out of range for n={}",
            self.n
        );
        RowBits {
            words: &self.rows[a * self.words..(a + 1) * self.words],
            next_word: 0,
            base: 0,
            cur: 0,
        }
    }

    /// Validates row `a` once and returns an opaque handle for repeated
    /// [`get_in_row`](Self::get_in_row) probes. Hot loops probing many
    /// columns of one row (SHBG rules 6/7) hoist the row bounds check and
    /// offset multiply here instead of paying them per [`get`](Self::get).
    /// The handle is a plain offset, not a borrow, so the matrix can
    /// still be mutated between probes (bit sets never move the rows).
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn checked_row(&self, a: usize) -> usize {
        assert!(
            a < self.n,
            "BitMatrix::checked_row({a}) out of range for n={}",
            self.n
        );
        a * self.words
    }

    /// Reads column `b` of a row validated by
    /// [`checked_row`](Self::checked_row); only the column index is
    /// re-checked.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn get_in_row(&self, row: usize, b: usize) -> bool {
        assert!(
            b < self.n,
            "BitMatrix::get_in_row(.., {b}) out of range for n={}",
            self.n
        );
        self.rows[row + b / 64] & (1 << (b % 64)) != 0
    }

    /// Number of set bits in the whole matrix.
    pub fn count_ones(&self) -> usize {
        self.rows.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Computes the transitive closure in place; returns the number of
    /// strongly-connected components of the edge relation.
    ///
    /// Semantics: after the call, `get(a, b)` holds iff `b` is
    /// reachable from `a` through **at least one** edge — so `get(a, a)`
    /// holds only when `a` lies on a cycle (including a self-loop).
    pub fn transitive_closure(&mut self) -> usize {
        if self.n == 0 {
            return 0;
        }
        let scc = tarjan(self);
        let (n, words, sccs) = (self.n, self.words, scc.count);
        // Bucket the members of each component with one counting sort:
        // component `s` owns `order[start[s]..start[s + 1]]`, ascending.
        let mut start = vec![0usize; sccs + 1];
        for &s in &scc.comp {
            start[s] += 1;
        }
        let mut end = 0;
        for slot in &mut start {
            end += *slot;
            *slot = end;
        }
        let mut order = vec![0usize; n];
        for a in (0..n).rev() {
            let s = scc.comp[a];
            start[s] -= 1;
            order[start[s]] = a;
        }
        // Close the condensation. Tarjan emits components in reverse
        // topological order (every component reachable from `s` has a
        // smaller id), so the rows of all of `s`'s successors are final
        // when `s` is processed, and all rows of one component are equal.
        // The rows of `s` itself are still its direct edges: each is read
        // before the accumulator is copied over it.
        let mut acc = vec![0u64; words];
        let mut seen = vec![false; sccs];
        let mut touched: Vec<usize> = Vec::new();
        for s in 0..sccs {
            let members = &order[start[s]..start[s + 1]];
            acc.fill(0);
            // A single-node component is cyclic only via a self-loop.
            let mut cyclic = members.len() > 1;
            for &a in members {
                for b in self.row_bits(a) {
                    let t = scc.comp[b];
                    if t == s {
                        cyclic = true;
                        continue;
                    }
                    if seen[t] {
                        continue;
                    }
                    seen[t] = true;
                    touched.push(t);
                    // `t`'s closed row, plus its members: a cyclic
                    // component's row already holds them all, and an
                    // acyclic one has the single member `b`.
                    let rep = order[start[t]] * words;
                    for (dst, src) in acc.iter_mut().zip(&self.rows[rep..rep + words]) {
                        *dst |= src;
                    }
                    acc[b / 64] |= 1 << (b % 64);
                }
            }
            if cyclic {
                for &a in members {
                    acc[a / 64] |= 1 << (a % 64);
                }
            }
            for &a in members {
                self.rows[a * words..(a + 1) * words].copy_from_slice(&acc);
            }
            for &t in &touched {
                seen[t] = false;
            }
            touched.clear();
        }
        sccs
    }
}

/// Borrowed, non-allocating iterator over the set bits of one row.
pub struct RowBits<'a> {
    words: &'a [u64],
    next_word: usize,
    base: usize,
    cur: u64,
}

impl Iterator for RowBits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.cur != 0 {
                let bit = self.cur.trailing_zeros() as usize;
                self.cur &= self.cur - 1;
                return Some(self.base + bit);
            }
            if self.next_word >= self.words.len() {
                return None;
            }
            self.cur = self.words[self.next_word];
            self.base = self.next_word * 64;
            self.next_word += 1;
        }
    }
}

/// Tarjan condensation of the matrix's edge relation.
struct SccResult {
    /// Node → component id. Ids are assigned in **emission order**:
    /// every component reachable from component `s` has an id `< s`.
    comp: Vec<usize>,
    /// Number of components.
    count: usize,
}

fn tarjan(m: &BitMatrix) -> SccResult {
    const UNVISITED: u32 = u32::MAX;
    let n = m.len();
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0u32;
    let mut comp = vec![usize::MAX; n];
    let mut count = 0usize;
    // Explicit DFS frames: (node, its successor iterator).
    let mut frames: Vec<(usize, RowBits<'_>)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        frames.push((root, m.row_bits(root)));
        while let Some((v, it)) = frames.last_mut() {
            let v = *v;
            if let Some(w) = it.next() {
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, m.row_bits(w)));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                if lowlink[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w] = false;
                        comp[w] = count;
                        if w == v {
                            break;
                        }
                    }
                    count += 1;
                }
                frames.pop();
                if let Some((p, _)) = frames.last() {
                    let p = *p;
                    lowlink[p] = lowlink[p].min(lowlink[v]);
                }
            }
        }
    }
    SccResult { comp, count }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BitMatrix {
        /// `row[a] |= row[b]`; returns whether row `a` changed. Only the
        /// naive Warshall oracle in `proptests` needs it.
        pub(super) fn or_row(&mut self, a: usize, b: usize) -> bool {
            if a == b {
                return false;
            }
            let mut changed = false;
            let (ra, rb) = (a * self.words, b * self.words);
            for w in 0..self.words {
                let src = self.rows[rb + w];
                let dst = &mut self.rows[ra + w];
                let nv = *dst | src;
                if nv != *dst {
                    *dst = nv;
                    changed = true;
                }
            }
            changed
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = BitMatrix::new(130);
        m.set(0, 129);
        m.set(64, 64);
        assert!(m.get(0, 129));
        assert!(m.get(64, 64));
        assert!(!m.get(129, 0));
        assert_eq!(m.count_ones(), 2);
        assert_eq!(m.len(), 130);
        assert!(!m.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_panics_out_of_range() {
        let m = BitMatrix::new(130);
        let _ = m.get(200, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_panics_out_of_range() {
        let mut m = BitMatrix::new(130);
        m.set(0, 130);
    }

    #[test]
    fn closure_of_a_chain() {
        let mut m = BitMatrix::new(5);
        for i in 0..4 {
            m.set(i, i + 1);
        }
        let sccs = m.transitive_closure();
        assert_eq!(sccs, 5, "an acyclic chain has one SCC per node");
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(m.get(i, j), i < j, "({i},{j})");
            }
        }
        assert_eq!(m.count_ones(), 10);
    }

    #[test]
    fn closure_of_a_cycle_collapses_to_one_scc() {
        let mut m = BitMatrix::new(4);
        m.set(0, 1);
        m.set(1, 2);
        m.set(2, 0);
        m.set(2, 3);
        let sccs = m.transitive_closure();
        assert_eq!(sccs, 2, "{{0,1,2}} and {{3}}");
        for a in 0..3 {
            for b in 0..3 {
                assert!(m.get(a, b), "cycle members reach each other ({a},{b})");
            }
            assert!(m.get(a, 3));
        }
        assert!(!m.get(3, 0) && !m.get(3, 3));
    }

    #[test]
    fn self_loop_is_self_reachable() {
        let mut m = BitMatrix::new(2);
        m.set(0, 0);
        let sccs = m.transitive_closure();
        assert_eq!(sccs, 2);
        assert!(m.get(0, 0));
        assert!(!m.get(1, 1), "no edge, not self-reachable");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_bits_panics_out_of_range() {
        let m = BitMatrix::new(130);
        let _ = m.row_bits(130);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn checked_row_panics_out_of_range() {
        let m = BitMatrix::new(130);
        let _ = m.checked_row(200);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_in_row_panics_on_bad_column() {
        let m = BitMatrix::new(130);
        let row = m.checked_row(3);
        let _ = m.get_in_row(row, 130);
    }

    #[test]
    fn get_in_row_agrees_with_get() {
        let mut m = BitMatrix::new(70);
        m.set(3, 1);
        m.set(3, 65);
        let row = m.checked_row(3);
        for b in 0..70 {
            assert_eq!(m.get_in_row(row, b), m.get(3, b), "column {b}");
        }
    }

    #[test]
    fn row_bits_enumerates() {
        let mut m = BitMatrix::new(70);
        m.set(3, 1);
        m.set(3, 65);
        assert_eq!(m.row_bits(3).collect::<Vec<_>>(), vec![1, 65]);
        assert_eq!(m.row_bits(0).next(), None);
    }

    #[test]
    fn or_row_merges() {
        let mut m = BitMatrix::new(4);
        m.set(1, 2);
        m.set(1, 3);
        assert!(m.or_row(0, 1));
        assert!(m.get(0, 2) && m.get(0, 3));
        assert!(!m.or_row(0, 1), "idempotent");
        assert!(!m.or_row(2, 2), "self-merge is a no-op");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use sierra_prng::SplitMix64;

    /// A random edge list over 2..=12 nodes.
    fn random_edges(rng: &mut SplitMix64) -> (usize, Vec<(usize, usize)>) {
        let n = 2 + rng.usize(11);
        let edges = (0..rng.usize(24))
            .map(|_| (rng.usize(n), rng.usize(n)))
            .collect();
        (n, edges)
    }

    /// The reference implementation the SCC closure must match: Warshall
    /// over bit rows, re-swept until no row changes.
    fn naive_closure(m: &mut BitMatrix) {
        let mut changed = true;
        while changed {
            changed = false;
            for a in 0..m.len() {
                let succs: Vec<usize> = m.row_bits(a).collect();
                for b in succs {
                    if m.or_row(a, b) {
                        changed = true;
                    }
                }
            }
        }
    }

    /// The closure is exactly graph reachability (excluding trivial
    /// self-reachability unless on a cycle).
    #[test]
    fn closure_is_reachability() {
        let mut rng = SplitMix64::new(0xB17A1);
        for _ in 0..256 {
            let (n, edges) = random_edges(&mut rng);
            let mut m = BitMatrix::new(n);
            let mut adj = vec![vec![]; n];
            for &(a, b) in &edges {
                m.set(a, b);
                adj[a].push(b);
            }
            m.transitive_closure();
            for s in 0..n {
                // BFS from s through at least one edge.
                let mut seen = std::collections::HashSet::new();
                let mut stack: Vec<usize> = adj[s].clone();
                while let Some(x) = stack.pop() {
                    if seen.insert(x) {
                        stack.extend(adj[x].iter().copied());
                    }
                }
                for t in 0..n {
                    assert_eq!(m.get(s, t), seen.contains(&t), "({s},{t}) in {edges:?}");
                }
            }
        }
    }

    /// Closing twice changes nothing (idempotence).
    #[test]
    fn closure_is_idempotent() {
        let mut rng = SplitMix64::new(0x1DE3B);
        for _ in 0..256 {
            let (n, edges) = random_edges(&mut rng);
            let mut m = BitMatrix::new(n);
            for &(a, b) in &edges {
                m.set(a, b);
            }
            m.transitive_closure();
            let once = m.clone();
            m.transitive_closure();
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(m.get(a, b), once.get(a, b));
                }
            }
        }
    }

    /// The closure only adds bits, never removes them.
    #[test]
    fn closure_is_extensive() {
        let mut rng = SplitMix64::new(0xE87E5);
        for _ in 0..256 {
            let (n, edges) = random_edges(&mut rng);
            let mut m = BitMatrix::new(n);
            for &(a, b) in &edges {
                m.set(a, b);
            }
            let before = m.clone();
            m.transitive_closure();
            for a in 0..n {
                for b in 0..n {
                    assert!(!before.get(a, b) || m.get(a, b));
                }
            }
            assert!(m.count_ones() >= before.count_ones());
        }
    }

    /// A random DAG-plus-cycles graph over `n` nodes: `base` random
    /// edges, a forward backbone, and up to `cycles` planted cycles
    /// (chains closed with a back edge) whose consecutive members lie
    /// `stride` apart, so a stride of 64 or more puts every member in a
    /// different word of the row.
    fn random_graph(
        rng: &mut SplitMix64,
        n: usize,
        base: usize,
        cycles: usize,
        stride: usize,
    ) -> BitMatrix {
        let mut m = BitMatrix::new(n);
        // A sparse random base graph...
        for _ in 0..rng.usize(base + 1) {
            m.set(rng.usize(n), rng.usize(n));
        }
        // ...a layered DAG backbone...
        for a in 0..n.saturating_sub(1) {
            if rng.usize(3) == 0 {
                m.set(a, a + 1 + rng.usize(n - a - 1));
            }
        }
        // ...plus a few planted cycles.
        for _ in 0..rng.usize(cycles + 1) {
            let start = rng.usize(n);
            let len = 1 + rng.usize(8);
            let mut prev = start;
            for k in 1..=len {
                let next = (start + k * stride) % n;
                m.set(prev, next);
                prev = next;
            }
            m.set(prev, start);
        }
        m
    }

    /// Closes `m` both ways and asserts they agree on every pair.
    fn assert_matches_naive(mut m: BitMatrix, what: &str) {
        let n = m.len();
        let mut reference = m.clone();
        naive_closure(&mut reference);
        let sccs = m.transitive_closure();
        assert!(sccs >= 1 && sccs <= n);
        for a in 0..n {
            for b in 0..n {
                assert_eq!(m.get(a, b), reference.get(a, b), "({a},{b}) {what} n={n}");
            }
        }
    }

    /// The SCC-condensed closure agrees with naive Warshall on random
    /// DAG-plus-cycles graphs: 24 of up to 512 nodes with short cycles
    /// of neighbours, and 3 of 513 to 2,100 nodes (9 to 33 words a row)
    /// with long forward chains and cycles that span several words.
    #[test]
    fn scc_closure_matches_naive_warshall() {
        let mut rng = SplitMix64::new(0x5CC_C105);
        for round in 0..24 {
            let n = 2 + rng.usize(511);
            let m = random_graph(&mut rng, n, 4 * n, 3, 1);
            assert_matches_naive(m, &format!("round {round}"));
        }
        let mut rng = SplitMix64::new(0x5CC_C106);
        for n in [513, 1031, 2100] {
            let stride = 64 + rng.usize(n / 8);
            let mut m = random_graph(&mut rng, n, n / 2, 6, stride);
            // Short forward hops make long chains, so most rows are wide.
            for a in 0..n - 1 {
                for _ in 0..2 {
                    m.set(a, a + 1 + rng.usize((n - a - 1).min(256)));
                }
            }
            assert_matches_naive(m, "large");
        }
    }
}
