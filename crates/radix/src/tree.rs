//! The arena-backed, path-compressed radix tree.

use p2o_obs::Counter;

use crate::key::RadixKey;

/// Index of a node in the arena. The root is always index 0.
type NodeId = u32;

#[derive(Debug, Clone)]
struct Node<K, V> {
    prefix: K,
    value: Option<V>,
    children: [Option<NodeId>; 2],
}

/// A path-compressed binary radix tree mapping prefixes to values.
///
/// Stored prefixes appear as nodes carrying `Some(value)`; divergence points
/// appear as valueless glue nodes. Lookups never allocate except when
/// returning a collected chain.
///
/// ```
/// use p2o_radix::RadixTree;
/// use p2o_net::Prefix4;
///
/// let mut tree: RadixTree<Prefix4, &str> = RadixTree::new();
/// tree.insert("206.238.0.0/16".parse().unwrap(), "PSINet, Inc");
/// tree.insert("206.238.0.0/24".parse().unwrap(), "Tcloudnet, Inc");
///
/// let routed: Prefix4 = "206.238.0.128/25".parse().unwrap();
/// let chain: Vec<_> = tree.covering(&routed).collect();
/// assert_eq!(chain[0].1, &"Tcloudnet, Inc"); // most specific first
/// assert_eq!(chain[1].1, &"PSINet, Inc");
/// ```
#[derive(Debug, Clone)]
pub struct RadixTree<K, V> {
    nodes: Vec<Node<K, V>>,
    len: usize,
    inserts: Option<Counter>,
    lookups: Option<Counter>,
}

impl<K: RadixKey, V> Default for RadixTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: RadixKey, V> RadixTree<K, V> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        RadixTree {
            nodes: vec![Node {
                prefix: K::DEFAULT,
                value: None,
                children: [None, None],
            }],
            len: 0,
            inserts: None,
            lookups: None,
        }
    }

    /// Attaches observability counters: `inserts` ticks once per [`insert`],
    /// `lookups` once per query (`get`/`get_mut`/`remove`/`covering`/
    /// `longest_match`/`subtree`). Uninstrumented trees pay one branch.
    ///
    /// [`insert`]: RadixTree::insert
    pub fn instrument(&mut self, inserts: Counter, lookups: Counter) {
        self.inserts = Some(inserts);
        self.lookups = Some(lookups);
    }

    #[inline]
    fn tick_lookup(&self) {
        if let Some(c) = &self.lookups {
            c.incr();
        }
    }

    /// Number of stored prefixes (not internal nodes).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn alloc(&mut self, prefix: K, value: Option<V>) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(Node {
            prefix,
            value,
            children: [None, None],
        });
        id
    }

    /// Inserts `prefix` with `value`, returning the previous value if the
    /// prefix was already present.
    pub fn insert(&mut self, prefix: K, value: V) -> Option<V> {
        if let Some(c) = &self.inserts {
            c.incr();
        }
        let mut cur: NodeId = 0;
        loop {
            let cur_prefix = self.nodes[cur as usize].prefix;
            debug_assert!(cur_prefix.contains(&prefix));
            if cur_prefix == prefix {
                let old = self.nodes[cur as usize].value.replace(value);
                if old.is_none() {
                    self.len += 1;
                }
                return old;
            }
            let branch = prefix.bit(cur_prefix.len()) as usize;
            match self.nodes[cur as usize].children[branch] {
                None => {
                    let leaf = self.alloc(prefix, Some(value));
                    self.nodes[cur as usize].children[branch] = Some(leaf);
                    self.len += 1;
                    return None;
                }
                Some(child) => {
                    let child_prefix = self.nodes[child as usize].prefix;
                    if child_prefix.contains(&prefix) {
                        cur = child;
                        continue;
                    }
                    if prefix.contains(&child_prefix) {
                        // Splice the new node between cur and child.
                        let new = self.alloc(prefix, Some(value));
                        let down = child_prefix.bit(prefix.len()) as usize;
                        self.nodes[new as usize].children[down] = Some(child);
                        self.nodes[cur as usize].children[branch] = Some(new);
                        self.len += 1;
                        return None;
                    }
                    // Diverge: make a glue node at the common ancestor.
                    let glue_len = prefix.common_len(&child_prefix);
                    debug_assert!(glue_len > cur_prefix.len());
                    let glue_prefix = prefix.truncated(glue_len);
                    let glue = self.alloc(glue_prefix, None);
                    let leaf = self.alloc(prefix, Some(value));
                    let child_side = child_prefix.bit(glue_len) as usize;
                    let leaf_side = prefix.bit(glue_len) as usize;
                    debug_assert_ne!(child_side, leaf_side);
                    self.nodes[glue as usize].children[child_side] = Some(child);
                    self.nodes[glue as usize].children[leaf_side] = Some(leaf);
                    self.nodes[cur as usize].children[branch] = Some(glue);
                    self.len += 1;
                    return None;
                }
            }
        }
    }

    /// Finds the node holding exactly `prefix`, if stored.
    fn find_node(&self, prefix: &K) -> Option<NodeId> {
        let mut cur: NodeId = 0;
        loop {
            let node = &self.nodes[cur as usize];
            if node.prefix == *prefix {
                return Some(cur);
            }
            if !node.prefix.contains(prefix) || node.prefix.len() >= prefix.len() {
                return None;
            }
            let branch = prefix.bit(node.prefix.len()) as usize;
            match node.children[branch] {
                Some(child)
                    if self.nodes[child as usize].prefix.contains(prefix)
                        || self.nodes[child as usize].prefix == *prefix =>
                {
                    cur = child;
                }
                Some(child) => {
                    // Child diverges from or is below `prefix` — only an exact
                    // hit deeper down is impossible, but `prefix` might
                    // contain the child without being stored itself.
                    let _ = child;
                    return None;
                }
                None => return None,
            }
        }
    }

    /// Returns the stored value for exactly `prefix`.
    pub fn get(&self, prefix: &K) -> Option<&V> {
        self.tick_lookup();
        self.find_node(prefix)
            .and_then(|id| self.nodes[id as usize].value.as_ref())
    }

    /// Mutable access to the stored value for exactly `prefix`.
    pub fn get_mut(&mut self, prefix: &K) -> Option<&mut V> {
        self.tick_lookup();
        self.find_node(prefix)
            .and_then(|id| self.nodes[id as usize].value.as_mut())
    }

    /// Whether exactly `prefix` is stored.
    pub fn contains_key(&self, prefix: &K) -> bool {
        self.get(prefix).is_some()
    }

    /// Removes the value stored at exactly `prefix` and returns it.
    ///
    /// The node itself stays in the arena as a glue node (the tree never
    /// shrinks physically); with the workloads in this project removals are
    /// rare, so we trade a little memory for simplicity and stable node ids.
    pub fn remove(&mut self, prefix: &K) -> Option<V> {
        self.tick_lookup();
        let id = self.find_node(prefix)?;
        let old = self.nodes[id as usize].value.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The most specific stored prefix that equals or covers `key`
    /// (longest-prefix match).
    pub fn longest_match(&self, key: &K) -> Option<(K, &V)> {
        self.covering(key).next()
    }

    /// Iterates all stored prefixes that equal or cover `key`, **most
    /// specific first** — the §5.2 ownership-chain walk.
    pub fn covering<'a>(&'a self, key: &K) -> Covering<'a, K, V> {
        self.covering_with_depth(key).0
    }

    /// Like [`covering`](Self::covering), but also reports how many arena
    /// nodes the LPM walk visited (glue nodes included) — the `radix.lpm`
    /// provenance detail surfaced by `p2o explain`.
    pub fn covering_with_depth<'a>(&'a self, key: &K) -> (Covering<'a, K, V>, usize) {
        self.tick_lookup();
        let mut chain: Vec<NodeId> = Vec::new();
        let mut visited = 0usize;
        let mut cur: NodeId = 0;
        loop {
            visited += 1;
            let node = &self.nodes[cur as usize];
            if node.value.is_some() {
                chain.push(cur);
            }
            if node.prefix.len() >= key.len() {
                break;
            }
            let branch = key.bit(node.prefix.len()) as usize;
            match node.children[branch] {
                Some(child) if self.nodes[child as usize].prefix.contains(key) => {
                    cur = child;
                }
                _ => break,
            }
        }
        (Covering { tree: self, chain }, visited)
    }

    /// Iterates all stored `(prefix, value)` pairs contained in `key`
    /// (including `key` itself if stored), in sorted order.
    pub fn subtree<'a>(&'a self, key: &K) -> Iter<'a, K, V> {
        self.tick_lookup();
        // Descend to the highest node whose prefix is contained in `key`.
        let mut cur: NodeId = 0;
        let root = loop {
            let node = &self.nodes[cur as usize];
            if key.contains(&node.prefix) {
                break Some(cur);
            }
            if !node.prefix.contains(key) {
                break None;
            }
            let branch = key.bit(node.prefix.len()) as usize;
            match node.children[branch] {
                Some(child) => {
                    let cp = self.nodes[child as usize].prefix;
                    if key.contains(&cp) {
                        break Some(child);
                    }
                    if cp.contains(key) {
                        cur = child;
                        continue;
                    }
                    break None;
                }
                None => break None,
            }
        };
        Iter {
            tree: self,
            stack: root.map(|r| vec![r]).unwrap_or_default(),
        }
    }

    /// Iterates all stored `(prefix, value)` pairs in sorted order
    /// (supernets before their subnets, low addresses first).
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            tree: self,
            stack: vec![0],
        }
    }

    /// Iterates the stored prefixes in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }
}

/// Iterator over a covering chain, most specific first.
pub struct Covering<'a, K, V> {
    tree: &'a RadixTree<K, V>,
    chain: Vec<NodeId>,
}

impl<'a, K: RadixKey, V> Iterator for Covering<'a, K, V> {
    type Item = (K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let id = self.chain.pop()?;
        let node = &self.tree.nodes[id as usize];
        Some((
            node.prefix,
            node.value.as_ref().expect("chain nodes carry values"),
        ))
    }
}

/// Pre-order DFS iterator; yields stored pairs in sorted order.
pub struct Iter<'a, K, V> {
    tree: &'a RadixTree<K, V>,
    stack: Vec<NodeId>,
}

impl<'a, K: RadixKey, V> Iterator for Iter<'a, K, V> {
    type Item = (K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(id) = self.stack.pop() {
            let node = &self.tree.nodes[id as usize];
            // Push right child first so the left (0) side pops first.
            if let Some(c) = node.children[1] {
                self.stack.push(c);
            }
            if let Some(c) = node.children[0] {
                self.stack.push(c);
            }
            if let Some(v) = node.value.as_ref() {
                return Some((node.prefix, v));
            }
        }
        None
    }
}

impl<K: RadixKey, V> FromIterator<(K, V)> for RadixTree<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut tree = RadixTree::new();
        for (k, v) in iter {
            tree.insert(k, v);
        }
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2o_net::Prefix4;

    fn p(s: &str) -> Prefix4 {
        s.parse().unwrap()
    }

    fn tree(entries: &[&str]) -> RadixTree<Prefix4, String> {
        entries.iter().map(|s| (p(s), s.to_string())).collect()
    }

    #[test]
    fn empty_tree() {
        let t: RadixTree<Prefix4, ()> = RadixTree::new();
        assert!(t.is_empty());
        assert_eq!(t.longest_match(&p("10.0.0.0/8")), None);
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.covering(&p("10.0.0.0/8")).count(), 0);
        assert_eq!(t.subtree(&p("0.0.0.0/0")).count(), 0);
    }

    #[test]
    fn insert_get_exact() {
        let mut t = RadixTree::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&2));
        assert_eq!(t.get(&p("10.0.0.0/9")), None);
        assert_eq!(t.get(&p("10.0.0.0/7")), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn get_mut_updates() {
        let mut t = tree(&["10.0.0.0/8"]);
        *t.get_mut(&p("10.0.0.0/8")).unwrap() = "changed".into();
        assert_eq!(t.get(&p("10.0.0.0/8")).unwrap(), "changed");
    }

    #[test]
    fn default_route_storable() {
        let mut t = RadixTree::new();
        t.insert(Prefix4::DEFAULT, 0);
        t.insert(p("10.0.0.0/8"), 1);
        assert_eq!(t.get(&Prefix4::DEFAULT), Some(&0));
        let chain: Vec<_> = t.covering(&p("10.1.0.0/16")).collect();
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].1, &1);
        assert_eq!(chain[1].1, &0);
    }

    #[test]
    fn longest_match_basic() {
        let t = tree(&["10.0.0.0/8", "10.20.0.0/16", "10.20.30.0/24"]);
        let (pre, v) = t.longest_match(&p("10.20.30.128/25")).unwrap();
        assert_eq!(pre, p("10.20.30.0/24"));
        assert_eq!(v, "10.20.30.0/24");
        let (pre, _) = t.longest_match(&p("10.20.31.0/24")).unwrap();
        assert_eq!(pre, p("10.20.0.0/16"));
        let (pre, _) = t.longest_match(&p("10.99.0.0/16")).unwrap();
        assert_eq!(pre, p("10.0.0.0/8"));
        assert_eq!(t.longest_match(&p("11.0.0.0/8")), None);
    }

    #[test]
    fn exact_prefix_matches_itself() {
        let t = tree(&["10.20.0.0/16"]);
        let (pre, _) = t.longest_match(&p("10.20.0.0/16")).unwrap();
        assert_eq!(pre, p("10.20.0.0/16"));
    }

    #[test]
    fn covering_chain_is_most_specific_first() {
        let t = tree(&[
            "206.0.0.0/8",
            "206.238.0.0/16",
            "206.238.10.0/24",
            "100.0.0.0/8",
        ]);
        let chain: Vec<_> = t
            .covering(&p("206.238.10.128/26"))
            .map(|(k, _)| k)
            .collect();
        assert_eq!(
            chain,
            vec![p("206.238.10.0/24"), p("206.238.0.0/16"), p("206.0.0.0/8")]
        );
    }

    #[test]
    fn covering_with_depth_counts_walked_nodes() {
        let t = tree(&["10.0.0.0/8", "10.20.0.0/16", "10.20.30.0/24"]);
        let (iter, visited) = t.covering_with_depth(&p("10.20.30.128/25"));
        assert_eq!(iter.count(), 3);
        // root + /8 + /16 + /24.
        assert_eq!(visited, 4);
        // A miss still walks (and reports) the root.
        let (iter, visited) = t.covering_with_depth(&p("11.0.0.0/8"));
        assert_eq!(iter.count(), 0);
        assert_eq!(visited, 1);
    }

    #[test]
    fn covering_skips_diverging_siblings() {
        let t = tree(&["10.0.0.0/16", "10.1.0.0/16"]);
        // The glue node 10.0.0.0/15 carries no value and must not appear.
        let chain: Vec<_> = t.covering(&p("10.1.2.0/24")).map(|(k, _)| k).collect();
        assert_eq!(chain, vec![p("10.1.0.0/16")]);
    }

    #[test]
    fn glue_node_creation_and_split() {
        let mut t = RadixTree::new();
        t.insert(p("10.0.0.0/16"), 1);
        t.insert(p("10.1.0.0/16"), 2);
        // Now store the glue prefix itself: it must become a real entry.
        t.insert(p("10.0.0.0/15"), 3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(&p("10.0.0.0/15")), Some(&3));
        let chain: Vec<_> = t.covering(&p("10.1.0.0/16")).map(|(_, v)| *v).collect();
        assert_eq!(chain, vec![2, 3]);
    }

    #[test]
    fn splice_parent_above_existing_child() {
        let mut t = RadixTree::new();
        t.insert(p("10.20.30.0/24"), 1);
        t.insert(p("10.20.0.0/16"), 2); // inserted *after* its subnet
        let chain: Vec<_> = t.covering(&p("10.20.30.0/24")).map(|(_, v)| *v).collect();
        assert_eq!(chain, vec![1, 2]);
    }

    #[test]
    fn subtree_enumerates_contained() {
        let t = tree(&[
            "10.0.0.0/8",
            "10.20.0.0/16",
            "10.20.30.0/24",
            "10.21.0.0/16",
            "11.0.0.0/8",
        ]);
        let got: Vec<_> = t.subtree(&p("10.20.0.0/15")).map(|(k, _)| k).collect();
        assert_eq!(
            got,
            vec![p("10.20.0.0/16"), p("10.20.30.0/24"), p("10.21.0.0/16")]
        );
        // Subtree of a stored prefix includes itself.
        let got: Vec<_> = t.subtree(&p("10.20.0.0/16")).map(|(k, _)| k).collect();
        assert_eq!(got, vec![p("10.20.0.0/16"), p("10.20.30.0/24")]);
        // Subtree of an uncovered block is empty.
        assert_eq!(t.subtree(&p("12.0.0.0/8")).count(), 0);
    }

    #[test]
    fn subtree_of_everything() {
        let t = tree(&["10.0.0.0/8", "11.0.0.0/8"]);
        assert_eq!(t.subtree(&Prefix4::DEFAULT).count(), 2);
    }

    #[test]
    fn iteration_is_sorted() {
        let t = tree(&["11.0.0.0/8", "10.20.30.0/24", "10.0.0.0/8", "10.20.0.0/16"]);
        let keys: Vec<_> = t.keys().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 4);
    }

    #[test]
    fn remove_clears_value_but_keeps_structure() {
        let mut t = tree(&["10.0.0.0/8", "10.20.0.0/16"]);
        assert_eq!(t.remove(&p("10.20.0.0/16")), Some("10.20.0.0/16".into()));
        assert_eq!(t.remove(&p("10.20.0.0/16")), None);
        assert_eq!(t.len(), 1);
        let (pre, _) = t.longest_match(&p("10.20.30.0/24")).unwrap();
        assert_eq!(pre, p("10.0.0.0/8"));
        // Re-insertion works.
        t.insert(p("10.20.0.0/16"), "back".into());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn host_route_leaves() {
        let mut t = RadixTree::new();
        t.insert(p("192.0.2.1/32"), 1);
        t.insert(p("192.0.2.2/32"), 2);
        assert_eq!(t.longest_match(&p("192.0.2.1/32")).unwrap().1, &1);
        assert_eq!(t.longest_match(&p("192.0.2.2/32")).unwrap().1, &2);
        assert_eq!(t.longest_match(&p("192.0.2.3/32")), None);
    }

    #[test]
    fn works_for_v6() {
        use p2o_net::Prefix6;
        let mut t: RadixTree<Prefix6, u32> = RadixTree::new();
        t.insert("2001:db8::/32".parse().unwrap(), 1);
        t.insert("2001:db8:100::/40".parse().unwrap(), 2);
        let chain: Vec<_> = t
            .covering(&"2001:db8:100:1::/64".parse().unwrap())
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(chain, vec![2, 1]);
    }
}
