//! Record identifiers: stable addresses of heap records.

use std::fmt;

/// Address of a record in heap storage: `(page, slot)`.
///
/// Record ids are stable across unrelated insertions and deletions (the
/// slotted page's stable-slot discipline guarantees it), but an in-place
/// update that no longer fits the page relocates the record and yields a
/// new id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId {
    /// Page number of the heap page holding the record.
    pub page: u32,
    /// Slot within the page.
    pub slot: u16,
}

impl RecordId {
    /// Construct from parts.
    pub fn new(page: u32, slot: u16) -> Self {
        RecordId { page, slot }
    }
}

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.page, self.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_page_major() {
        assert!(RecordId::new(1, 9) < RecordId::new(2, 0));
        assert!(RecordId::new(1, 1) < RecordId::new(1, 2));
    }

    #[test]
    fn display() {
        assert_eq!(RecordId::new(7, 3).to_string(), "7:3");
    }
}
