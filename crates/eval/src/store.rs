//! The slot store: every record field value lives in a slot, and `extract`
//! shares slots between records (the paper's L-values).

use crate::value::{SlotId, Value};

#[derive(Debug, Default)]
pub struct Store {
    slots: Vec<Value>,
}

impl Store {
    pub fn new() -> Self {
        Store::default()
    }

    pub fn alloc(&mut self, v: Value) -> SlotId {
        self.slots.push(v);
        self.slots.len() - 1
    }

    pub fn get(&self, slot: SlotId) -> &Value {
        &self.slots[slot]
    }

    pub fn set(&mut self, slot: SlotId, v: Value) {
        self.slots[slot] = v;
    }

    /// Drop every slot at or above `len` (a read region's reclamation).
    pub fn truncate(&mut self, len: usize) {
        self.slots.truncate(len);
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_set() {
        let mut st = Store::new();
        let a = st.alloc(Value::Int(1));
        let b = st.alloc(Value::Int(2));
        assert_ne!(a, b);
        assert!(matches!(st.get(a), Value::Int(1)));
        st.set(a, Value::Int(10));
        assert!(matches!(st.get(a), Value::Int(10)));
        assert!(matches!(st.get(b), Value::Int(2)));
    }
}
