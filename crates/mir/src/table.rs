//! Dense tables keyed by SSA values.
//!
//! A [`Value`] is a compiler-issued dense id — [`Func::new_value`] hands out
//! `0..value_count()` — so a table keyed by one is a vector indexed by the
//! id, as [`Liveness`] already is: a lookup is an index, not a hash. Keys
//! that come from the source (identifiers, constants) are another matter:
//! those tables stay on `std`'s randomly seeded hashing, so a source cannot
//! pick keys that collide.
//!
//! Both tables grow on insert (passes mint values mid-walk), a read past
//! the end is absent rather than a panic (so analyses over a module that
//! would not verify stay total), and iteration is in ascending id order.
//!
//! [`Func::new_value`]: crate::Func::new_value
//! [`Liveness`]: crate::Liveness

use crate::ops::Value;
use std::fmt;

/// A `Value → T` table stored as a vector indexed by the value's id.
///
/// Equality is entry-wise: two tables holding the same entries are equal
/// whatever length their vectors grew to.
#[derive(Clone)]
pub struct ValueMap<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> ValueMap<T> {
    /// An empty table.
    pub fn new() -> Self {
        ValueMap {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// An empty table with room for the values `0..n` (a function's
    /// [`value_count`](crate::Func::value_count)) before it reallocates.
    pub fn with_capacity(n: usize) -> Self {
        ValueMap {
            slots: Vec::with_capacity(n),
            len: 0,
        }
    }

    /// The entry for `v`, if any.
    pub fn get(&self, v: Value) -> Option<&T> {
        self.slots.get(v.0 as usize)?.as_ref()
    }

    /// The entry for `v`, mutably, if any.
    pub fn get_mut(&mut self, v: Value) -> Option<&mut T> {
        self.slots.get_mut(v.0 as usize)?.as_mut()
    }

    /// True when `v` has an entry.
    pub fn contains_key(&self, v: Value) -> bool {
        self.get(v).is_some()
    }

    /// The slot of `v`, growing the table to hold it.
    fn slot(&mut self, v: Value) -> &mut Option<T> {
        let i = v.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        &mut self.slots[i]
    }

    /// Sets the entry for `v`, returning the one it replaces.
    pub fn insert(&mut self, v: Value, t: T) -> Option<T> {
        let old = self.slot(v).replace(t);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The entry for `v`, made from `make` first if there is none.
    pub fn get_or_insert_with(&mut self, v: Value, make: impl FnOnce() -> T) -> &mut T {
        self.len += usize::from(!self.contains_key(v));
        self.slot(v).get_or_insert_with(make)
    }

    /// Removes the entry for `v`, returning it.
    pub fn remove(&mut self, v: Value) -> Option<T> {
        let old = self.slots.get_mut(v.0 as usize)?.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Keeps only the entries `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(Value, &mut T) -> bool) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(t) = slot {
                if !keep(Value(i as u32), t) {
                    *slot = None;
                    self.len -= 1;
                }
            }
        }
    }

    /// The entries, in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (Value, &T)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|t| (Value(i as u32), t)))
    }

    /// The keys, in ascending value order.
    pub fn keys(&self) -> impl Iterator<Item = Value> + '_ {
        self.iter().map(|(v, _)| v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }
}

impl<T> Default for ValueMap<T> {
    fn default() -> Self {
        ValueMap::new()
    }
}

impl<T: PartialEq> PartialEq for ValueMap<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for ValueMap<T> {}

impl<T: fmt::Debug> fmt::Debug for ValueMap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Panics when `v` has no entry; [`ValueMap::get`] is the total lookup.
impl<T> std::ops::Index<Value> for ValueMap<T> {
    type Output = T;

    fn index(&self, v: Value) -> &T {
        self.get(v)
            .unwrap_or_else(|| panic!("no entry for %{}", v.0))
    }
}

impl<T> FromIterator<(Value, T)> for ValueMap<T> {
    fn from_iter<I: IntoIterator<Item = (Value, T)>>(iter: I) -> Self {
        let mut map = ValueMap::new();
        map.extend(iter);
        map
    }
}

impl<T> Extend<(Value, T)> for ValueMap<T> {
    fn extend<I: IntoIterator<Item = (Value, T)>>(&mut self, iter: I) {
        for (v, t) in iter {
            self.insert(v, t);
        }
    }
}

/// A set of values stored as a vector of flags indexed by the value's id.
///
/// Equality is member-wise, whatever length the vector grew to.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct ValueSet(ValueMap<()>);

impl ValueSet {
    /// An empty set.
    pub fn new() -> Self {
        ValueSet::default()
    }

    /// An empty set with room for the values `0..n` before it reallocates.
    pub fn with_capacity(n: usize) -> Self {
        ValueSet(ValueMap::with_capacity(n))
    }

    /// True when `v` is a member.
    pub fn contains(&self, v: Value) -> bool {
        self.0.contains_key(v)
    }

    /// Adds `v`; true when it was not a member yet.
    pub fn insert(&mut self, v: Value) -> bool {
        self.0.insert(v, ()).is_none()
    }

    /// Removes `v`; true when it was a member.
    pub fn remove(&mut self, v: Value) -> bool {
        self.0.remove(v).is_some()
    }

    /// The members, in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        self.0.keys()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there are no members.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Removes every member, keeping the allocation.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

impl fmt::Debug for ValueSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<Value> for ValueSet {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        let mut set = ValueSet::new();
        set.extend(iter);
        set
    }
}

impl Extend<Value> for ValueSet {
    fn extend<I: IntoIterator<Item = Value>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<'a> Extend<&'a Value> for ValueSet {
    fn extend<I: IntoIterator<Item = &'a Value>>(&mut self, iter: I) {
        self.extend(iter.into_iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_entries_compare_equal_whatever_the_length() {
        let mut long = ValueMap::new();
        long.insert(Value(1), 'a');
        long.insert(Value(40), 'b');
        long.remove(Value(40));
        let short: ValueMap<char> = [(Value(1), 'a')].into_iter().collect();
        assert_eq!(long, short);
        long.insert(Value(2), 'c');
        assert_ne!(long, short);
        let mut set: ValueSet = [Value(3), Value(90)].into_iter().collect();
        set.remove(Value(90));
        assert_eq!(set, [Value(3)].into_iter().collect());
        assert_eq!(ValueSet::new(), ValueSet::with_capacity(64));
    }

    #[test]
    fn keys_are_ascending() {
        let map: ValueMap<u8> = [(Value(9), 0), (Value(2), 1), (Value(5), 2)]
            .into_iter()
            .collect();
        assert_eq!(
            map.keys().collect::<Vec<_>>(),
            [Value(2), Value(5), Value(9)]
        );
        let set: ValueSet = [Value(7), Value(0), Value(3)].into_iter().collect();
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            [Value(0), Value(3), Value(7)]
        );
        assert_eq!(format!("{set:?}"), "{Value(0), Value(3), Value(7)}");
    }

    #[test]
    fn reads_past_the_end_are_absent() {
        let mut map: ValueMap<u8> = ValueMap::new();
        assert_eq!(map.get(Value(1_000)), None);
        assert_eq!(map.get_mut(Value(u32::MAX)), None);
        assert!(!map.contains_key(Value(7)));
        assert_eq!(map.remove(Value(7)), None);
        let mut set = ValueSet::new();
        assert!(!set.contains(Value(1_000)));
        assert!(!set.remove(Value(1_000)));
        assert!(set.is_empty() && map.is_empty());
    }

    #[test]
    fn insert_past_the_end_grows() {
        let mut map = ValueMap::new();
        assert_eq!(map.insert(Value(12), 'x'), None);
        assert_eq!(map.insert(Value(12), 'y'), Some('x'));
        assert_eq!(map.get(Value(12)), Some(&'y'));
        assert_eq!(map[Value(12)], 'y');
        *map.get_or_insert_with(Value(30), || 'z') = 'w';
        assert_eq!(*map.get_or_insert_with(Value(30), || 'q'), 'w');
        assert_eq!(map.len(), 2);
        map.retain(|v, _| v != Value(12));
        assert_eq!(map.iter().collect::<Vec<_>>(), [(Value(30), &'w')]);
        let mut set = ValueSet::new();
        assert!(set.insert(Value(20)));
        assert!(!set.insert(Value(20)));
        assert!(set.contains(Value(20)) && !set.contains(Value(19)));
        assert_eq!(set.len(), 1);
    }
}
