(* Flat, dictionary-encoded item sets.

   Items are interned through an {!Intern} table and a set is stored in
   one of two canonical flat forms over the resulting ids:

   - [Ids]: a strictly increasing int array. Union, intersection,
     difference and subset are merge kernels over the arrays (with a
     binary-search gallop when one side is much smaller).
   - [Bits]: a word-aligned bitset, used when the id range is dense
     ([card >= 64] and [span <= 8 * card]); the kernels become
     word-wise or/and/and-not.

   The representation is a function of the set alone (cardinality and
   exact id span), never of how it was computed, so equal sets always
   have identical structure and [equal] is a flat comparison.

   Observable behavior matches the historical [Set.Make (Value)]
   implementation (kept as a test oracle): [to_list], [iter], [fold]
   and [pp] enumerate in increasing {!Value.compare} order, and
   membership follows [Value.equal] equality classes because the intern
   table does. The one caveat is representatives: where the AVL set kept
   the first element *added to that set* of an equality class (e.g.
   [Int 1] vs [Float 1.0]), interning keeps the first spelling the
   *table* ever saw. Schema-typed merge columns never mix spellings, so
   mediator answers are unchanged; the equivalence property tests pin
   this down.

   Sets built against different intern tables interoperate through a
   slow path that re-interns the right operand into the left table. *)

type bits = { base : int; words : int array; card : int }
(* [base] is a multiple of [bpw]; bit [j] of [words.(w)] is id
   [base + w * bpw + j]. First and last words are nonzero. *)

type t = Empty | Ids of Intern.t * int array | Bits of Intern.t * bits

let bpw = Sys.int_size (* usable bits per word *)
let bits_min_card = 64
let bits_max_spread = 8

(* A bitset is worthwhile when ids are dense: the span in bits stays
   within [bits_max_spread] times the cardinality (so the word array is
   at most card/8 words) and the set is big enough to amortize it. *)
let dense card span = card >= bits_min_card && span <= bits_max_spread * card

(* Kernel invocation counter, for tests that must prove an operation
   did no element-level work (e.g. inter_list short-circuiting). *)
let kernel_calls = ref 0
let kernel () = incr kernel_calls

(* Word-at-a-time bit counting: the two halves of a word (32 + 31
   bits) each get the classic SWAR popcount, which stays exact in
   OCaml's 63-bit ints. *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  ((x * 0x01010101) lsr 24) land 0xff

let popcount w = popcount32 (w land 0xffffffff) + popcount32 (w lsr 32)

(* Index of the lowest set bit of a nonzero word: count the ones below
   it. *)
let lsb_index w = popcount ((w land -w) - 1)

(* Index of the highest set bit of a nonzero word: a binary search
   over shift widths 32, 16, ..., 1. *)
let msb_index w =
  let rec go j x s =
    if s = 0 then j else if x lsr s <> 0 then go (j + s) (x lsr s) (s / 2) else go j x (s / 2)
  in
  go 0 w 32

(* Visits set bits only: each step strips the lowest one. *)
let ids_of_bits (b : bits) =
  let out = Array.make b.card 0 in
  let k = ref 0 in
  Array.iteri
    (fun w word ->
      let off = b.base + (w * bpw) in
      let x = ref word in
      while !x <> 0 do
        out.(!k) <- off + lsb_index !x;
        incr k;
        x := !x land (!x - 1)
      done)
    b.words;
  out

let to_ids = function
  | Empty -> [||]
  | Ids (_, ids) -> ids
  | Bits (_, b) -> ids_of_bits b

let table = function Empty -> None | Ids (tbl, _) -> Some tbl | Bits (tbl, _) -> Some tbl

let tbl_exn = function
  | Empty -> invalid_arg "Item_set: empty set has no table"
  | Ids (tbl, _) | Bits (tbl, _) -> tbl

(* The bitset spanning exactly the sorted distinct [ids]. *)
let bits_of_ids ids =
  let n = Array.length ids in
  let lo = ids.(0) and hi = ids.(n - 1) in
  let base = lo - (lo mod bpw) in
  let words = Array.make (((hi - base) / bpw) + 1) 0 in
  Array.iter
    (fun id ->
      let k = id - base in
      words.(k / bpw) <- words.(k / bpw) lor (1 lsl (k mod bpw)))
    ids;
  { base; words; card = n }

(* Build the canonical bitset for sorted distinct [ids] (known dense). *)
let make_bits tbl ids = Bits (tbl, bits_of_ids ids)

(* [ids] strictly increasing; picks the canonical representation. *)
let of_sorted_ids tbl ids =
  let n = Array.length ids in
  if n = 0 then Empty
  else if dense n (ids.(n - 1) - ids.(0) + 1) then make_bits tbl ids
  else Ids (tbl, ids)

(* Canonicalize a freshly computed word array: trim zero words, count
   (unless the caller already knows the count), and fall back to the
   array form when the result went sparse. *)
let norm_bits ?card tbl base words =
  let n = Array.length words in
  let first = ref 0 in
  while !first < n && words.(!first) = 0 do
    incr first
  done;
  if !first = n then Empty
  else begin
    let last = ref (n - 1) in
    while words.(!last) = 0 do
      decr last
    done;
    let words =
      if !first = 0 && !last = n - 1 then words
      else Array.sub words !first (!last - !first + 1)
    in
    let base = base + (!first * bpw) in
    let card =
      match card with
      | Some c -> c
      | None -> Array.fold_left (fun acc w -> acc + popcount w) 0 words
    in
    let lo = base + lsb_index words.(0) in
    let hi = base + ((Array.length words - 1) * bpw) + msb_index words.(Array.length words - 1) in
    if dense card (hi - lo + 1) then Bits (tbl, { base; words; card })
    else Ids (tbl, ids_of_bits { base; words; card })
  end

(* Sort and deduplicate in place, skipping the sort when the input is
   already strictly increasing (the common case for ids collected in
   index order). Takes ownership of [ids]. *)
let sort_dedup ids =
  let n = Array.length ids in
  if n <= 1 then ids
  else begin
    let sorted = ref true in
    (try
       for i = 1 to n - 1 do
         if ids.(i - 1) >= ids.(i) then begin
           sorted := false;
           raise Exit
         end
       done
     with Exit -> ());
    if !sorted then ids
    else begin
      Array.sort (fun (a : int) b -> Stdlib.compare a b) ids;
      let k = ref 1 in
      for i = 1 to n - 1 do
        if ids.(i) <> ids.(!k - 1) then begin
          ids.(!k) <- ids.(i);
          incr k
        end
      done;
      if !k = n then ids else Array.sub ids 0 !k
    end
  end

let of_ids tbl ids = of_sorted_ids tbl (sort_dedup ids)

let of_words tbl ~base words =
  if base mod bpw <> 0 then invalid_arg "Item_set.of_words: unaligned base";
  norm_bits tbl base words

(* ---------- sorted-array kernels ---------- *)

let mem_sorted (arr : int array) x =
  let lo = ref 0 and hi = ref (Array.length arr - 1) and found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = arr.(mid) in
    if v = x then found := true else if v < x then lo := mid + 1 else hi := mid - 1
  done;
  !found

let merge_union (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < la && !j < lb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then begin
      out.(!k) <- x;
      incr i
    end
    else if x > y then begin
      out.(!k) <- y;
      incr j
    end
    else begin
      out.(!k) <- x;
      incr i;
      incr j
    end;
    incr k
  done;
  while !i < la do
    out.(!k) <- a.(!i);
    incr i;
    incr k
  done;
  while !j < lb do
    out.(!k) <- b.(!j);
    incr j;
    incr k
  done;
  if !k = la + lb then out else Array.sub out 0 !k

let merge_inter (a : int array) (b : int array) =
  let a, b = if Array.length a <= Array.length b then (a, b) else (b, a) in
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let k = ref 0 in
  if la * 32 < lb then
    (* Gallop: probe the large side per element of the small side. *)
    Array.iter
      (fun x ->
        if mem_sorted b x then begin
          out.(!k) <- x;
          incr k
        end)
      a
  else begin
    let i = ref 0 and j = ref 0 in
    while !i < la && !j < lb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then incr i
      else if x > y then incr j
      else begin
        out.(!k) <- x;
        incr i;
        incr j;
        incr k
      end
    done
  end;
  if !k = la then out else Array.sub out 0 !k

let merge_diff (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let k = ref 0 in
  if lb > 0 && la * 32 < lb then
    Array.iter
      (fun x ->
        if not (mem_sorted b x) then begin
          out.(!k) <- x;
          incr k
        end)
      a
  else begin
    let i = ref 0 and j = ref 0 in
    while !i < la && !j < lb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then begin
        out.(!k) <- x;
        incr i;
        incr k
      end
      else if x > y then incr j
      else begin
        incr i;
        incr j
      end
    done;
    while !i < la do
      out.(!k) <- a.(!i);
      incr i;
      incr k
    done
  end;
  if !k = la then out else Array.sub out 0 !k

let merge_sym_diff (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < la && !j < lb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then begin
      out.(!k) <- x;
      incr i;
      incr k
    end
    else if x > y then begin
      out.(!k) <- y;
      incr j;
      incr k
    end
    else begin
      incr i;
      incr j
    end
  done;
  while !i < la do
    out.(!k) <- a.(!i);
    incr i;
    incr k
  done;
  while !j < lb do
    out.(!k) <- b.(!j);
    incr j;
    incr k
  done;
  if !k = la + lb then out else Array.sub out 0 !k

let subset_sorted (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  la <= lb
  && (la = 0
     ||
     (a.(0) >= b.(0)
     && a.(la - 1) <= b.(lb - 1)
     &&
     let i = ref 0 and j = ref 0 and ok = ref true in
     while !ok && !i < la do
       while !j < lb && b.(!j) < a.(!i) do
         incr j
       done;
       if !j < lb && b.(!j) = a.(!i) then begin
         incr i;
         incr j
       end
       else ok := false
     done;
     !ok))

(* ---------- bitset kernels ---------- *)

let bit_test (b : bits) id =
  let k = id - b.base in
  k >= 0
  && k < Array.length b.words * bpw
  && b.words.(k / bpw) land (1 lsl (k mod bpw)) <> 0

let bits_top (b : bits) = b.base + (Array.length b.words * bpw)

let bits_union tbl (a : bits) (b : bits) =
  let base = min a.base b.base in
  let top = max (bits_top a) (bits_top b) in
  let nwords = (top - base) / bpw in
  if nwords > (bits_max_spread * (a.card + b.card) / bpw) + 1 then
    (* Result would be sparse across the combined span; merge as arrays. *)
    of_sorted_ids tbl (merge_union (ids_of_bits a) (ids_of_bits b))
  else begin
    let words = Array.make nwords 0 in
    let oa = (a.base - base) / bpw and ob = (b.base - base) / bpw in
    Array.iteri (fun w x -> words.(oa + w) <- x) a.words;
    Array.iteri (fun w x -> words.(ob + w) <- words.(ob + w) lor x) b.words;
    norm_bits tbl base words
  end

let bits_inter tbl (a : bits) (b : bits) =
  let base = max a.base b.base in
  let top = min (bits_top a) (bits_top b) in
  if top <= base then Empty
  else begin
    let nwords = (top - base) / bpw in
    let words = Array.make nwords 0 in
    let oa = (base - a.base) / bpw and ob = (base - b.base) / bpw in
    for w = 0 to nwords - 1 do
      words.(w) <- a.words.(oa + w) land b.words.(ob + w)
    done;
    norm_bits tbl base words
  end

let bits_diff tbl (a : bits) (b : bits) =
  let words = Array.copy a.words in
  let lo = max a.base b.base and hi = min (bits_top a) (bits_top b) in
  if lo < hi then begin
    let oa = (lo - a.base) / bpw and ob = (lo - b.base) / bpw in
    for w = 0 to ((hi - lo) / bpw) - 1 do
      words.(oa + w) <- words.(oa + w) land lnot b.words.(ob + w)
    done
  end;
  norm_bits tbl a.base words

let bits_sym_diff tbl (a : bits) (b : bits) =
  let base = min a.base b.base in
  let top = max (bits_top a) (bits_top b) in
  let nwords = (top - base) / bpw in
  if nwords > (bits_max_spread * (a.card + b.card) / bpw) + 1 then
    (* Result would be sparse across the combined span; merge as arrays. *)
    of_sorted_ids tbl (merge_sym_diff (ids_of_bits a) (ids_of_bits b))
  else begin
    let words = Array.make nwords 0 in
    let oa = (a.base - base) / bpw and ob = (b.base - base) / bpw in
    Array.iteri (fun w x -> words.(oa + w) <- x) a.words;
    Array.iteri (fun w x -> words.(ob + w) <- words.(ob + w) lxor x) b.words;
    norm_bits tbl base words
  end

let bits_subset (a : bits) (b : bits) =
  a.card <= b.card
  && a.base >= b.base
  && bits_top a <= bits_top b
  &&
  let o = (a.base - b.base) / bpw in
  let ok = ref true and w = ref 0 in
  let n = Array.length a.words in
  while !ok && !w < n do
    if a.words.(!w) land lnot b.words.(o + !w) <> 0 then ok := false;
    incr w
  done;
  !ok

let union_ids_bits tbl (ids : int array) (b : bits) =
  let la = Array.length ids in
  let base = min (ids.(0) - (ids.(0) mod bpw)) b.base in
  let hi = max ids.(la - 1) (bits_top b - 1) in
  let nwords = ((hi - base) / bpw) + 1 in
  if nwords > (bits_max_spread * (la + b.card) / bpw) + 1 then
    of_sorted_ids tbl (merge_union ids (ids_of_bits b))
  else begin
    let words = Array.make nwords 0 in
    let ob = (b.base - base) / bpw in
    Array.iteri (fun w x -> words.(ob + w) <- x) b.words;
    Array.iter
      (fun id ->
        let k = id - base in
        words.(k / bpw) <- words.(k / bpw) lor (1 lsl (k mod bpw)))
      ids;
    norm_bits tbl base words
  end

(* ---------- delta-sized kernels ----------

   When one operand has at most 1/[delta_ratio] of the other's
   elements (a change applied to an answer), [union] and [diff] touch
   only the small side: a sorted array is spliced at binary-searched
   positions, a bitset's words are copied once and the small side's
   bits flipped with the count kept. Both hand the untouched large
   operand back when nothing changes, and both end in the canonical
   constructors, so results are structurally those of the merge and
   word kernels. *)

let delta_ratio = 32

(* First index in [a.(from ..)] whose element is [>= x]. *)
let lower_bound (a : int array) from x =
  let lo = ref from and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* [big ∪ small] for sorted arrays: find each small id's slot, then
   build the result from blits of [big] between the slots. *)
let splice_union (big : int array) (small : int array) =
  let lb = Array.length big in
  let slot = Array.make (Array.length small) (-1) in
  let fresh = ref 0 and from = ref 0 in
  Array.iteri
    (fun i x ->
      let p = lower_bound big !from x in
      from := p;
      if p = lb || big.(p) <> x then begin
        slot.(i) <- p;
        incr fresh
      end)
    small;
  if !fresh = 0 then big
  else begin
    let out = Array.make (lb + !fresh) 0 in
    let src = ref 0 and dst = ref 0 in
    Array.iteri
      (fun i x ->
        let p = slot.(i) in
        if p >= 0 then begin
          Array.blit big !src out !dst (p - !src);
          dst := !dst + (p - !src);
          src := p;
          out.(!dst) <- x;
          incr dst
        end)
      small;
    Array.blit big !src out !dst (lb - !src);
    out
  end

(* [big − small] for sorted arrays: locate the doomed positions, then
   blit around them. *)
let splice_diff (big : int array) (small : int array) =
  let lb = Array.length big in
  let hit = Array.make (Array.length small) (-1) in
  let gone = ref 0 and from = ref 0 in
  Array.iteri
    (fun i x ->
      let p = lower_bound big !from x in
      from := p;
      if p < lb && big.(p) = x then begin
        hit.(i) <- p;
        incr gone
      end)
    small;
  if !gone = 0 then big
  else begin
    let out = Array.make (lb - !gone) 0 in
    let src = ref 0 and dst = ref 0 in
    Array.iter
      (fun p ->
        if p >= 0 then begin
          Array.blit big !src out !dst (p - !src);
          dst := !dst + (p - !src);
          src := p + 1
        end)
      hit;
    Array.blit big !src out !dst (lb - !src);
    out
  end

(* [b ∪ ids] for a small sorted [ids]: one copy of the words (widened
   when ids fall outside them), then set bits, counting the new ones. *)
let bits_add tbl (b : bits) (ids : int array) =
  let n = Array.length ids in
  let base = min b.base (ids.(0) - (ids.(0) mod bpw)) in
  let top = max (bits_top b) (ids.(n - 1) - (ids.(n - 1) mod bpw) + bpw) in
  let nwords = (top - base) / bpw in
  if nwords > (bits_max_spread * (b.card + n) / bpw) + 1 then
    (* The far ids make the result sparse: splice as arrays. *)
    of_sorted_ids tbl (splice_union (ids_of_bits b) ids)
  else begin
    let words = Array.make nwords 0 in
    Array.blit b.words 0 words ((b.base - base) / bpw) (Array.length b.words);
    let card = ref b.card in
    Array.iter
      (fun id ->
        let k = id - base in
        let w = k / bpw and bit = 1 lsl (k mod bpw) in
        if words.(w) land bit = 0 then begin
          words.(w) <- words.(w) lor bit;
          incr card
        end)
      ids;
    if !card = b.card then Bits (tbl, b) else norm_bits ~card:!card tbl base words
  end

(* [b − ids] for a small sorted [ids]: copy the words only when some id
   is present, clear those bits and keep the count. *)
let bits_remove tbl (b : bits) (ids : int array) =
  let gone = Array.fold_left (fun k id -> if bit_test b id then k + 1 else k) 0 ids in
  if gone = 0 then Bits (tbl, b)
  else begin
    let words = Array.copy b.words in
    Array.iter
      (fun id ->
        let k = id - b.base in
        if k >= 0 && k < Array.length words * bpw then
          words.(k / bpw) <- words.(k / bpw) land lnot (1 lsl (k mod bpw)))
      ids;
    norm_bits ~card:(b.card - gone) tbl b.base words
  end

(* ---------- table compatibility ---------- *)

let remap tbl s =
  match s with
  | Empty -> Empty
  | _ ->
    let stbl = tbl_exn s in
    if stbl == tbl then s
    else
      of_ids tbl
        (Array.map (fun id -> Intern.intern tbl (Intern.value stbl id)) (to_ids s))

(* ---------- the public algebra ---------- *)

let empty = Empty
let is_empty t = t = Empty

let cardinal = function
  | Empty -> 0
  | Ids (_, ids) -> Array.length ids
  | Bits (_, b) -> b.card

let union a b =
  match (a, b) with
  | Empty, x | x, Empty -> x
  | _ ->
    let tbl = tbl_exn a in
    let b = remap tbl b in
    kernel ();
    let add_to big small =
      match big with
      | Ids (_, bi) -> of_sorted_ids tbl (splice_union bi (to_ids small))
      | Bits (_, bb) -> bits_add tbl bb (to_ids small)
      | Empty -> assert false
    in
    let ca = cardinal a and cb = cardinal b in
    if cb * delta_ratio <= ca then add_to a b
    else if ca * delta_ratio <= cb then add_to b a
    else
      match (a, b) with
      | Ids (_, ai), Ids (_, bi) -> of_sorted_ids tbl (merge_union ai bi)
      | Bits (_, ab), Bits (_, bb) -> bits_union tbl ab bb
      | Ids (_, ai), Bits (_, bb) | Bits (_, bb), Ids (_, ai) -> union_ids_bits tbl ai bb
      | Empty, _ | _, Empty -> assert false

let inter a b =
  match (a, b) with
  | Empty, _ | _, Empty -> Empty
  | _ ->
    let tbl = tbl_exn a in
    let b = remap tbl b in
    kernel ();
    (match (a, b) with
    | Ids (_, ai), Ids (_, bi) -> of_sorted_ids tbl (merge_inter ai bi)
    | Bits (_, ab), Bits (_, bb) -> bits_inter tbl ab bb
    | Ids (_, ai), Bits (_, bb) | Bits (_, bb), Ids (_, ai) ->
      let out = Array.make (Array.length ai) 0 in
      let k = ref 0 in
      Array.iter
        (fun id ->
          if bit_test bb id then begin
            out.(!k) <- id;
            incr k
          end)
        ai;
      of_sorted_ids tbl (if !k = Array.length ai then out else Array.sub out 0 !k)
    | Empty, _ | _, Empty -> assert false)

let diff a b =
  match (a, b) with
  | Empty, _ -> Empty
  | _, Empty -> a
  | _ ->
    let tbl = tbl_exn a in
    let b = remap tbl b in
    kernel ();
    (match (a, b) with
    | Ids (_, ai), _ when cardinal b * delta_ratio <= Array.length ai ->
      of_sorted_ids tbl (splice_diff ai (to_ids b))
    | Bits (_, ab), Ids (_, bi) -> bits_remove tbl ab bi
    | Bits (_, ab), Bits (_, bb) when bb.card * delta_ratio <= ab.card ->
      bits_remove tbl ab (ids_of_bits bb)
    | Ids (_, ai), Ids (_, bi) -> of_sorted_ids tbl (merge_diff ai bi)
    | Bits (_, ab), Bits (_, bb) -> bits_diff tbl ab bb
    | Ids (_, ai), Bits (_, bb) ->
      let out = Array.make (Array.length ai) 0 in
      let k = ref 0 in
      Array.iter
        (fun id ->
          if not (bit_test bb id) then begin
            out.(!k) <- id;
            incr k
          end)
        ai;
      of_sorted_ids tbl (if !k = Array.length ai then out else Array.sub out 0 !k)
    | Empty, _ | _, Empty -> assert false)

let sym_diff a b =
  match (a, b) with
  | Empty, x | x, Empty -> x
  | _ ->
    let tbl = tbl_exn a in
    let b = remap tbl b in
    kernel ();
    (match (a, b) with
    | Ids (_, ai), Ids (_, bi) -> of_sorted_ids tbl (merge_sym_diff ai bi)
    | Bits (_, ab), Bits (_, bb) -> bits_sym_diff tbl ab bb
    | Ids (_, ai), Bits (_, bb) | Bits (_, bb), Ids (_, ai) ->
      (* Mixed forms: the result is neither a copy of one operand nor a
         pure mask, so merge over sorted ids and re-canonicalize. *)
      of_sorted_ids tbl (merge_sym_diff ai (ids_of_bits bb))
    | Empty, _ | _, Empty -> assert false)

let subset a b =
  match (a, b) with
  | Empty, _ -> true
  | _, Empty -> false
  | _ ->
    let tbl = tbl_exn b in
    let a = remap tbl a in
    kernel ();
    (match (a, b) with
    | Ids (_, ai), Ids (_, bi) -> subset_sorted ai bi
    | Bits (_, ab), Bits (_, bb) -> bits_subset ab bb
    | Ids (_, ai), Bits (_, bb) ->
      Array.length ai <= bb.card && Array.for_all (fun id -> bit_test bb id) ai
    | Bits (_, ab), Ids (_, bi) -> subset_sorted (ids_of_bits ab) bi
    | Empty, _ | _, Empty -> assert false)

let arrays_equal (a : int array) (b : int array) =
  Array.length a = Array.length b
  &&
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length a do
    if a.(!i) <> b.(!i) then ok := false;
    incr i
  done;
  !ok

(* Elements as representative values, in increasing Value order. Distinct
   ids are distinct equality classes, so the sort is strict. *)
let values_sorted t =
  match t with
  | Empty -> [||]
  | _ ->
    let tbl = tbl_exn t in
    let vs = Array.map (Intern.value tbl) (to_ids t) in
    Array.sort Value.compare vs;
    vs

let equal a b =
  match (a, b) with
  | Empty, Empty -> true
  | Empty, _ | _, Empty -> false
  | Ids (ta, ai), Ids (tb, bi) when ta == tb -> arrays_equal ai bi
  | Bits (ta, ab), Bits (tb, bb) when ta == tb ->
    ab.base = bb.base && ab.card = bb.card && arrays_equal ab.words bb.words
  | (Ids (ta, _) | Bits (ta, _)), (Ids (tb, _) | Bits (tb, _)) when ta == tb ->
    (* Representations are canonical: differing forms differ as sets. *)
    false
  | _ ->
    let va = values_sorted a and vb = values_sorted b in
    Array.length va = Array.length vb
    &&
    let ok = ref true and i = ref 0 in
    while !ok && !i < Array.length va do
      if Value.compare va.(!i) vb.(!i) <> 0 then ok := false;
      incr i
    done;
    !ok

(* Total order matching [Set.compare]: lexicographic over the increasing
   element sequence, a finished prefix ordering first. *)
let compare a b =
  let va = values_sorted a and vb = values_sorted b in
  let la = Array.length va and lb = Array.length vb in
  let rec go i =
    if i = la && i = lb then 0
    else if i = la then -1
    else if i = lb then 1
    else
      match Value.compare va.(i) vb.(i) with 0 -> go (i + 1) | c -> c
  in
  go 0

let words = function
  | Empty -> (0, [||])
  | Bits (_, b) -> (b.base, Array.copy b.words)
  | Ids (_, ids) ->
    let b = bits_of_ids ids in
    (b.base, b.words)

let mem_id id = function
  | Empty -> false
  | Ids (_, ids) -> mem_sorted ids id
  | Bits (_, b) -> bit_test b id

let mem v t =
  match t with
  | Empty -> false
  | _ -> (
    match Intern.find (tbl_exn t) v with None -> false | Some id -> mem_id id t)

let of_list_in tbl vs =
  of_ids tbl (Array.of_list (List.map (fun v -> Intern.intern tbl v) vs))

let of_list vs = of_list_in Intern.global vs
let singleton v = of_list [ v ]

let add v t =
  match t with
  | Empty -> singleton v
  | _ -> (
    let tbl = tbl_exn t in
    let id = Intern.intern tbl v in
    if mem_id id t then t
    else
      match t with
      | Ids (_, ids) -> of_sorted_ids tbl (splice_union ids [| id |])
      | Bits (_, b) -> bits_add tbl b [| id |]
      | Empty -> assert false)

(* Size-aware folds: combining smallest-first keeps intermediates (and
   therefore kernel work) minimal, and an empty intermediate ends an
   intersection before any kernel runs. *)
let by_cardinal a b = Stdlib.compare (cardinal a) (cardinal b)

let union_list sets =
  match List.sort by_cardinal sets with
  | [] -> Empty
  | first :: rest -> List.fold_left union first rest

let inter_list sets =
  match List.sort by_cardinal sets with
  | [] -> Empty
  | first :: rest ->
    let rec go acc = function
      | [] -> acc
      | _ when is_empty acc -> Empty
      | s :: rest -> go (inter acc s) rest
    in
    go first rest

let to_list t = Array.to_list (values_sorted t)
let iter f t = Array.iter f (values_sorted t)
let fold f t init = Array.fold_left (fun acc v -> f v acc) init (values_sorted t)

let fold_items f t init =
  match t with
  | Empty -> init
  | _ ->
    let tbl = tbl_exn t in
    let pairs = Array.map (fun id -> (id, Intern.value tbl id)) (to_ids t) in
    Array.sort (fun (_, x) (_, y) -> Value.compare x y) pairs;
    Array.fold_left (fun acc (id, v) -> f id v acc) init pairs

let filter p t =
  match t with
  | Empty -> Empty
  | _ ->
    (* Apply the predicate in increasing Value order (matching the AVL
       implementation's iteration order) and rebuild from surviving
       ids. *)
    let tbl = tbl_exn t in
    let kept = fold_items (fun id v acc -> if p v then id :: acc else acc) t [] in
    of_ids tbl (Array.of_list (List.rev kept))

let fold_ids f t init =
  match t with
  | Empty -> init
  | Ids (_, ids) -> Array.fold_left (fun acc id -> f id acc) init ids
  | Bits (_, b) -> Array.fold_left (fun acc id -> f id acc) init (ids_of_bits b)

let hash t = fold_ids (fun id acc -> acc lxor Hashtbl.hash id) t 0

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Value.pp)
    (to_list s)

module Debug = struct
  let kernel_calls () = !kernel_calls

  let repr = function Empty -> "empty" | Ids _ -> "ids" | Bits _ -> "bits"
end
