//! The declaration form of a layer's work counters (DESIGN.md §9).

/// Declare a layer's work counters: a `Copy` struct of `u64` fields, each
/// declared once, with `since` (the work done between two reads of a
/// running total) and `merged` (the field-wise sum) derived from the
/// field list. The layers keep these tallies free of any metrics
/// dependency; the engine maps each field to its registry counter.
#[macro_export]
macro_rules! work_counters {
    ($(#[$meta:meta])* pub struct $name:ident { $($(#[$fmeta:meta])* pub $field:ident: u64,)* }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: u64,)*
        }

        impl $name {
            /// The work done since `before` was read from the same tally.
            pub fn since(&self, before: &$name) -> $name {
                $name { $($field: self.$field - before.$field,)* }
            }

            /// The field-wise sum.
            pub fn merged(&self, other: &$name) -> $name {
                $name { $($field: self.$field + other.$field,)* }
            }
        }
    };
}
