//! The shared table against a `BTreeMap` model: the same operations give
//! the same results, and iteration visits the same entries in the same
//! order, for dpids, port numbers, switch ports and host ids. Keys come
//! in shuffled order, past gaps, from a first key other than the
//! smallest, and at the extremes of their width.

use std::collections::BTreeMap;
use std::fmt::Debug;

use tm_prop::prelude::*;

use sdn_types::{DatapathId, HostId, PortNo, SwitchPort, SwitchPortTable, Table, TableKey};

/// Dpids: a run from 2, a gap, a short run, 0 and the top of the range.
const DPIDS: [u64; 10] = [2, 3, 4, 7, 8, 1000, 0, u64::MAX - 2, u64::MAX - 1, u64::MAX];

/// Port numbers: a run from 0, ports past gaps and the reserved top.
const PORTS: [u16; 12] = [0, 1, 2, 3, 5, 40, 63, 64, 200, 0xfffd, 0xfffe, 0xffff];

/// Host ids: a run from 1, a gap, aggregation-style ids and the top.
const HOSTS: [u32; 8] = [1, 2, 3, 9, 0xffff_0000, 0xffff_0001, u32::MAX - 1, u32::MAX];

/// One operation: its kind, the key it names (an index into the key
/// pool, or past it for a key the table never holds) and a value.
type Op = (u8, u8, u32);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    collection::vec((0u8..10, any::<u8>(), any::<u32>()), 0..200)
}

/// The operations a table and its model share.
trait Map<K, V> {
    fn len(&self) -> usize;
    fn get(&self, key: &K) -> Option<&V>;
    fn get_mut(&mut self, key: &K) -> Option<&mut V>;
    fn contains_key(&self, key: &K) -> bool;
    fn insert(&mut self, key: K, value: V) -> Option<V>;
    fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V;
    fn remove(&mut self, key: &K) -> Option<V>;
    fn retain(&mut self, keep: impl FnMut(K, &mut V) -> bool);
    /// Drops vacant slots; changes no entry.
    fn compact(&mut self) {}
    fn entries(&self) -> Vec<(K, V)>;
}

impl<K: TableKey, V: Clone> Map<K, V> for Table<K, V> {
    fn len(&self) -> usize {
        Table::len(self)
    }
    fn get(&self, key: &K) -> Option<&V> {
        Table::get(self, key)
    }
    fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        Table::get_mut(self, key)
    }
    fn contains_key(&self, key: &K) -> bool {
        Table::contains_key(self, key)
    }
    fn insert(&mut self, key: K, value: V) -> Option<V> {
        Table::insert(self, key, value)
    }
    fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        Table::get_or_insert_with(self, key, make)
    }
    fn remove(&mut self, key: &K) -> Option<V> {
        Table::remove(self, key)
    }
    fn retain(&mut self, keep: impl FnMut(K, &mut V) -> bool) {
        Table::retain(self, keep);
    }
    fn compact(&mut self) {
        Table::compact(self);
    }
    fn entries(&self) -> Vec<(K, V)> {
        let entries: Vec<(K, V)> = self.iter().map(|(k, v)| (k, v.clone())).collect();
        let keys: Vec<K> = self.keys().collect();
        let values: Vec<V> = self.values().cloned().collect();
        assert!(entries.iter().map(|(k, _)| *k).eq(keys));
        assert_eq!(entries.len(), values.len());
        entries
    }
}

impl<V: Clone> Map<SwitchPort, V> for SwitchPortTable<V> {
    fn len(&self) -> usize {
        SwitchPortTable::len(self)
    }
    fn get(&self, key: &SwitchPort) -> Option<&V> {
        SwitchPortTable::get(self, key)
    }
    fn get_mut(&mut self, key: &SwitchPort) -> Option<&mut V> {
        SwitchPortTable::get_mut(self, key)
    }
    fn contains_key(&self, key: &SwitchPort) -> bool {
        SwitchPortTable::contains_key(self, key)
    }
    fn insert(&mut self, key: SwitchPort, value: V) -> Option<V> {
        SwitchPortTable::insert(self, key, value)
    }
    fn get_or_insert_with(&mut self, key: SwitchPort, make: impl FnOnce() -> V) -> &mut V {
        SwitchPortTable::get_or_insert_with(self, key, make)
    }
    fn remove(&mut self, key: &SwitchPort) -> Option<V> {
        SwitchPortTable::remove(self, key)
    }
    fn retain(&mut self, keep: impl FnMut(SwitchPort, &mut V) -> bool) {
        SwitchPortTable::retain(self, keep);
    }
    fn compact(&mut self) {
        SwitchPortTable::compact(self);
    }
    fn entries(&self) -> Vec<(SwitchPort, V)> {
        let entries: Vec<(SwitchPort, V)> = self.iter().map(|(k, v)| (k, v.clone())).collect();
        assert!(entries.iter().map(|(k, _)| *k).eq(self.keys()));
        entries
    }
}

impl<K: Ord + Copy, V: Clone> Map<K, V> for BTreeMap<K, V> {
    fn len(&self) -> usize {
        BTreeMap::len(self)
    }
    fn get(&self, key: &K) -> Option<&V> {
        BTreeMap::get(self, key)
    }
    fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        BTreeMap::get_mut(self, key)
    }
    fn contains_key(&self, key: &K) -> bool {
        BTreeMap::contains_key(self, key)
    }
    fn insert(&mut self, key: K, value: V) -> Option<V> {
        BTreeMap::insert(self, key, value)
    }
    fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        self.entry(key).or_insert_with(make)
    }
    fn remove(&mut self, key: &K) -> Option<V> {
        BTreeMap::remove(self, key)
    }
    fn retain(&mut self, mut keep: impl FnMut(K, &mut V) -> bool) {
        BTreeMap::retain(self, |k, v| keep(*k, v));
    }
    fn entries(&self) -> Vec<(K, V)> {
        self.iter().map(|(k, v)| (*k, v.clone())).collect()
    }
}

/// Runs `ops` on `table` and on a `BTreeMap`, asserting equal results and
/// equal entries in equal order after every step. `key` maps an op's key
/// byte into the pool, or to a key outside it.
fn check<K: Ord + Copy + Debug>(mut table: impl Map<K, u32>, ops: &[Op], key: impl Fn(u8) -> K) {
    let mut model: BTreeMap<K, u32> = BTreeMap::new();
    for (i, &(kind, k, value)) in ops.iter().enumerate() {
        let k = key(k);
        match kind {
            0 | 1 => assert_eq!(
                table.insert(k, value),
                model.insert(k, value),
                "step {i}: insert {k:?}"
            ),
            2 => assert_eq!(table.get(&k), model.get(&k), "step {i}: get {k:?}"),
            3 => {
                let (a, b) = (table.get_mut(&k), model.get_mut(&k));
                assert_eq!(a.as_deref(), b.as_deref(), "step {i}: get_mut {k:?}");
                if let (Some(a), Some(b)) = (a, b) {
                    *a ^= value;
                    *b ^= value;
                }
            }
            4 => {
                let a = table.get_or_insert_with(k, || value);
                *a = a.wrapping_add(1);
                let a = *a;
                let b = model.get_or_insert_with(k, || value);
                *b = b.wrapping_add(1);
                assert_eq!(a, *b, "step {i}: get_or_insert_with {k:?}");
            }
            5 | 6 => assert_eq!(table.remove(&k), model.remove(&k), "step {i}: remove {k:?}"),
            7 => {
                // Keep the values whose low bits differ from the op's:
                // drops about a quarter of the entries.
                let mut seen = (Vec::new(), Vec::new());
                table.retain(|k, v| {
                    seen.0.push(k);
                    *v = v.wrapping_add(1);
                    *v & 3 != value & 3
                });
                Map::retain(&mut model, |k, v| {
                    seen.1.push(k);
                    *v = v.wrapping_add(1);
                    *v & 3 != value & 3
                });
                assert_eq!(seen.0, seen.1, "step {i}: retain visits in key order");
            }
            8 => table.compact(),
            _ => assert_eq!(
                table.contains_key(&k),
                model.contains_key(&k),
                "step {i}: contains_key {k:?}"
            ),
        }
        assert_eq!(table.len(), model.len(), "step {i}");
        assert_eq!(table.entries(), model.entries(), "step {i}");
    }
}

/// The pool entry `k` names, or a key outside the pool derived from it.
fn pick<T: Copy>(pool: &[T], k: u8, outside: impl Fn(u8) -> T) -> T {
    pool.get(usize::from(k % 16))
        .copied()
        .unwrap_or_else(|| outside(k))
}

tm_prop! {
    /// Dpids resolve by offset where they run on and by search elsewhere.
    #[test]
    fn dpid_table_matches_the_btreemap_model(ops in ops()) {
        check(Table::<DatapathId, u32>::new(), &ops, |k| {
            DatapathId::new(pick(&DPIDS, k, |k| 0x0100_0000 + u64::from(k)))
        });
    }

    /// Port numbers resolve through the direct index, up to 0xffff.
    #[test]
    fn port_table_matches_the_btreemap_model(ops in ops()) {
        check(Table::<PortNo, u32>::new(), &ops, |k| {
            PortNo::new(pick(&PORTS, k, |k| 0x1000 + u16::from(k)))
        });
    }

    /// Host ids resolve by offset where they run on and by search elsewhere.
    #[test]
    fn host_table_matches_the_btreemap_model(ops in ops()) {
        check(Table::<HostId, u32>::new(), &ops, |k| {
            HostId::new(pick(&HOSTS, k, |k| 0x100 + u32::from(k)))
        });
    }

    /// Switch ports iterate dpid first, then port.
    #[test]
    fn switch_port_table_matches_the_btreemap_model(ops in ops()) {
        check(SwitchPortTable::<u32>::new(), &ops, |k| {
            let dpid = DPIDS.get(usize::from(k >> 4) % 5 * 2).copied().unwrap_or(1);
            SwitchPort::new(
                DatapathId::new(dpid),
                PortNo::new(pick(&PORTS, k, |k| 0x1000 + u16::from(k))),
            )
        });
    }
}
