//! Tables keyed by switch, port, switch port or host that find a key in
//! one step and iterate in key order.
//!
//! A [`Table`] keeps its entries in one vector ascending by key, so
//! iteration is in key order, as a `BTreeMap`'s is. A lookup does not
//! search that vector:
//!
//! * by port number, a two-byte index gives each number its slot;
//! * by dpid or host id, the slot at the key's offset from the first key
//!   is tried, which is exact wherever ids run on without gaps, as every
//!   generated fabric and testbed numbers its switches and hosts; a
//!   binary search is the fallback.
//!
//! A [`SwitchPortTable`] nests a port table in a dpid table, so it
//! iterates dpid first, then port, as [`SwitchPort`]'s order does.
//!
//! Every key is accepted: an unknown one, however large, resolves to
//! nothing without panicking or allocating. Keys the controller reads
//! come from LLDP payloads, and a forged probe can claim any value.

use std::fmt;

use crate::ids::{DatapathId, HostId, PortNo, SwitchPort};

/// A key a [`Table`] finds without a search.
pub trait TableKey: Copy + Ord {
    /// The key's entry in a direct index, for keys narrow enough to index
    /// every value: port numbers.
    fn direct(self) -> Option<usize> {
        None
    }

    /// How many slots past `first` the key sits when keys run on from
    /// `first` without gaps: dpids and host ids.
    fn offset_from(self, first: Self) -> Option<usize> {
        let _ = first;
        None
    }
}

impl TableKey for PortNo {
    fn direct(self) -> Option<usize> {
        Some(usize::from(self.raw()))
    }
}

impl TableKey for DatapathId {
    fn offset_from(self, first: Self) -> Option<usize> {
        let offset = self.raw().checked_sub(first.raw())?;
        usize::try_from(offset).ok()
    }
}

impl TableKey for HostId {
    fn offset_from(self, first: Self) -> Option<usize> {
        let offset = self.0.checked_sub(first.0)?;
        usize::try_from(offset).ok()
    }
}

/// A map from [`TableKey`]s to values, ascending by key.
///
/// A removed key keeps its slot, vacant, so a key that comes back, as an
/// LLDP probe's port does every round, costs no shift and no allocation.
/// The table holds a slot for every key it was given until
/// [`Table::compact`] drops the vacant ones, which a table whose keys
/// come off the wire calls.
#[derive(Clone)]
pub struct Table<K, V> {
    /// Every key held or vacated since the last compaction, ascending,
    /// with its value while it has one.
    slots: Vec<(K, Option<V>)>,
    /// For direct keys, each key's slot, up to the highest key added: at
    /// most 64 Ki entries of two bytes. An entry counts only if the slot
    /// it names holds its key, so entries left by keys never added or
    /// compacted away need no clearing.
    index: Vec<u16>,
    /// The slots that hold a value.
    len: usize,
}

impl<K, V> Table<K, V> {
    /// Creates an empty table.
    pub const fn new() -> Self {
        Table {
            slots: Vec::new(),
            index: Vec::new(),
            len: 0,
        }
    }

    /// The number of keys with a value.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no key has a value.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<K: TableKey, V> Table<K, V> {
    /// The entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        self.slots
            .iter()
            .filter_map(|(key, value)| Some((*key, value.as_ref()?)))
    }

    /// The entries in ascending key order, values mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> + '_ {
        self.slots
            .iter_mut()
            .filter_map(|(key, value)| Some((*key, value.as_mut()?)))
    }

    /// The keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(key, _)| key)
    }

    /// The values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.slots.iter().filter_map(|(_, value)| value.as_ref())
    }

    /// Whether slot `at` holds `key`.
    fn holds(&self, at: usize, key: K) -> bool {
        self.slots.get(at).is_some_and(|(k, _)| *k == key)
    }

    /// The slot of `key`, vacant or not.
    fn find(&self, key: K) -> Option<usize> {
        if let Some(entry) = key.direct() {
            let at = usize::from(*self.index.get(entry)?);
            return self.holds(at, key).then_some(at);
        }
        let (first, _) = self.slots.first()?;
        if let Some(at) = key.offset_from(*first) {
            if self.holds(at, key) {
                return Some(at);
            }
        }
        self.slots.binary_search_by_key(&key, |(k, _)| *k).ok()
    }

    /// The slot of `key`, added vacant if the table has none. A key above
    /// every other is appended, so a table filled in key order builds in
    /// linear time; any other key shifts the slots above it.
    fn find_or_open(&mut self, key: K) -> usize {
        if let Some(at) = self.find(key) {
            return at;
        }
        let at = match self.slots.last() {
            Some((last, _)) if *last > key => self.slots.partition_point(|(k, _)| *k < key),
            _ => self.slots.len(),
        };
        self.slots.insert(at, (key, None));
        if let Some(entry) = key.direct() {
            let len = entry + 1;
            if self.index.len() < len {
                self.index.resize(len, 0);
            }
            self.reindex(at);
        }
        at
    }

    /// Points the direct index at slots `from..`. Distinct keys of two
    /// bytes fill at most 64 Ki slots, so every slot number fits.
    fn reindex(&mut self, from: usize) {
        for (at, (key, _)) in self.slots.iter().enumerate().skip(from) {
            let entry = key.direct().and_then(|entry| self.index.get_mut(entry));
            if let (Some(entry), Ok(at)) = (entry, u16::try_from(at)) {
                *entry = at;
            }
        }
    }

    /// The value of `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let at = self.find(*key)?;
        self.slots.get(at)?.1.as_ref()
    }

    /// The value of `key`, mutable.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let at = self.find(*key)?;
        self.slots.get_mut(at)?.1.as_mut()
    }

    /// Returns `true` if `key` has a value.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Sets the value of `key`, returning the one it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let at = self.find_or_open(key);
        debug_assert!(at < self.slots.len(), "find_or_open returns a slot");
        let prev = self.slots[at].1.replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// The value of `key`, set to `make()` first if it has none.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let at = self.find_or_open(key);
        debug_assert!(at < self.slots.len(), "find_or_open returns a slot");
        let (_, value) = &mut self.slots[at];
        if value.is_none() {
            self.len += 1;
        }
        value.get_or_insert_with(make)
    }

    /// Removes the value of `key` and returns it. The key keeps its slot,
    /// vacant.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let at = self.find(*key)?;
        let value = self.slots.get_mut(at)?.1.take()?;
        self.len -= 1;
        Some(value)
    }

    /// Keeps the entries `keep` approves, visiting them in key order. The
    /// others' keys keep their slots, vacant.
    pub fn retain(&mut self, mut keep: impl FnMut(K, &mut V) -> bool) {
        for (key, slot) in &mut self.slots {
            if let Some(value) = slot {
                if !keep(*key, value) {
                    *slot = None;
                    self.len -= 1;
                }
            }
        }
    }

    /// Drops the vacant slots once they outnumber the values, so the
    /// table's size follows what it holds, at a cost linear in the slots
    /// dropped.
    pub fn compact(&mut self) {
        if self.slots.len() - self.len > self.len {
            self.slots.retain(|(_, value)| value.is_some());
            self.reindex(0);
        }
    }
}

impl<K, V> Default for Table<K, V> {
    fn default() -> Self {
        Table::new()
    }
}

impl<K: TableKey + fmt::Debug, V: fmt::Debug> fmt::Debug for Table<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A map from [`SwitchPort`]s to values: a port table per dpid, iterated
/// dpid first, then port.
#[derive(Clone)]
pub struct SwitchPortTable<V> {
    switches: Table<DatapathId, Table<PortNo, V>>,
    /// The ports with a value, over every switch.
    len: usize,
}

/// A set of switch ports.
pub type SwitchPortSet = SwitchPortTable<()>;

impl<V> SwitchPortTable<V> {
    /// Creates an empty table.
    pub const fn new() -> Self {
        SwitchPortTable {
            switches: Table::new(),
            len: 0,
        }
    }

    /// The number of ports with a value.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no port has a value.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries in `(dpid, port)` order.
    pub fn iter(&self) -> impl Iterator<Item = (SwitchPort, &V)> + '_ {
        self.switches.iter().flat_map(|(dpid, ports)| {
            ports
                .iter()
                .map(move |(port, value)| (SwitchPort::new(dpid, port), value))
        })
    }

    /// The ports in `(dpid, port)` order.
    pub fn keys(&self) -> impl Iterator<Item = SwitchPort> + '_ {
        self.iter().map(|(key, _)| key)
    }

    /// The value of `key`.
    pub fn get(&self, key: &SwitchPort) -> Option<&V> {
        self.switches.get(&key.dpid)?.get(&key.port)
    }

    /// The value of `key`, mutable.
    pub fn get_mut(&mut self, key: &SwitchPort) -> Option<&mut V> {
        self.switches.get_mut(&key.dpid)?.get_mut(&key.port)
    }

    /// Returns `true` if `key` has a value.
    pub fn contains_key(&self, key: &SwitchPort) -> bool {
        self.get(key).is_some()
    }

    /// Sets the value of `key`, returning the one it replaces.
    pub fn insert(&mut self, key: SwitchPort, value: V) -> Option<V> {
        let ports = self.switches.get_or_insert_with(key.dpid, Table::new);
        let prev = ports.insert(key.port, value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// The value of `key`, set to `make()` first if it has none.
    pub fn get_or_insert_with(&mut self, key: SwitchPort, make: impl FnOnce() -> V) -> &mut V {
        let ports = self.switches.get_or_insert_with(key.dpid, Table::new);
        if !ports.contains_key(&key.port) {
            self.len += 1;
        }
        ports.get_or_insert_with(key.port, make)
    }

    /// Removes the value of `key` and returns it. The port keeps its slot,
    /// vacant, and its switch keeps its port table.
    pub fn remove(&mut self, key: &SwitchPort) -> Option<V> {
        let value = self.switches.get_mut(&key.dpid)?.remove(&key.port)?;
        self.len -= 1;
        Some(value)
    }

    /// Keeps the entries `keep` approves, visiting them in `(dpid, port)`
    /// order. The others' ports keep their slots, vacant.
    pub fn retain(&mut self, mut keep: impl FnMut(SwitchPort, &mut V) -> bool) {
        let mut len = 0;
        for (dpid, ports) in self.switches.iter_mut() {
            ports.retain(|port, value| keep(SwitchPort::new(dpid, port), value));
            len += ports.len();
        }
        self.len = len;
    }

    /// Compacts each port table (see [`Table::compact`]) and drops the
    /// switches left with no port.
    pub fn compact(&mut self) {
        self.switches.retain(|_, ports| {
            ports.compact();
            !ports.is_empty()
        });
        self.switches.compact();
    }
}

impl<V> Default for SwitchPortTable<V> {
    fn default() -> Self {
        SwitchPortTable::new()
    }
}

/// Collects entries in any order; a port given twice keeps its last value.
impl<V> FromIterator<(SwitchPort, V)> for SwitchPortTable<V> {
    fn from_iter<I: IntoIterator<Item = (SwitchPort, V)>>(entries: I) -> Self {
        let mut entries: Vec<(SwitchPort, V)> = entries.into_iter().collect();
        // Stable, so equal ports keep their order and the last one wins;
        // sorted, so every insert appends.
        entries.sort_by_key(|(key, _)| *key);
        let mut table = SwitchPortTable::new();
        for (key, value) in entries {
            table.insert(key, value);
        }
        table
    }
}

/// Equal when they hold the same entries, whatever slots they vacated.
impl<V: PartialEq> PartialEq for SwitchPortTable<V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<V: fmt::Debug> fmt::Debug for SwitchPortTable<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn port(p: u16) -> PortNo {
        PortNo::new(p)
    }

    /// Slot counts are invisible to the model properties.
    #[test]
    fn a_removed_key_keeps_its_slot_until_compacted() {
        let mut t: Table<PortNo, u32> = Table::new();
        for p in 1..=4 {
            t.insert(port(p), u32::from(p));
        }
        assert_eq!(t.remove(&port(2)), Some(2));
        assert_eq!(t.remove(&port(2)), None);
        assert_eq!((t.len(), t.slots.len()), (3, 4));
        assert_eq!(t.insert(port(2), 20), None);
        assert_eq!((t.len(), t.slots.len()), (4, 4));
        t.retain(|p, _| p.raw() > 2);
        assert_eq!((t.len(), t.slots.len()), (2, 4));
        // Two vacant slots do not outnumber two values.
        t.compact();
        assert_eq!((t.len(), t.slots.len()), (2, 4));
        t.remove(&port(3));
        t.compact();
        assert_eq!((t.len(), t.slots.len()), (1, 1));
        assert_eq!(t.get(&port(4)), Some(&4));
        assert_eq!(t.get(&port(2)), None);
        assert_eq!(t.insert(port(1), 1), None);
        assert_eq!(t.keys().map(|p| p.raw()).collect::<Vec<_>>(), [1, 4]);
    }

    /// The model properties in `tests/table.rs` cover lookups and order;
    /// this covers collecting, duplicates included.
    #[test]
    fn switch_ports_collect_in_any_order() {
        let sp = |d: u64, p: u16| SwitchPort::new(DatapathId::new(d), PortNo::new(p));
        let set: SwitchPortSet = [sp(2, 1), sp(1, 9), sp(2, 0), sp(1, 9)]
            .into_iter()
            .map(|key| (key, ()))
            .collect();
        assert_eq!(set.len(), 3);
        assert_eq!(
            set.keys().collect::<Vec<_>>(),
            [sp(1, 9), sp(2, 0), sp(2, 1)]
        );
        assert!(set.contains_key(&sp(2, 0)));
        assert!(!set.contains_key(&sp(1, 0)));
        assert!(!set.contains_key(&sp(3, 0)));
    }
}
