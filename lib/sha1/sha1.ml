module Json = Flux_json.Json

type digest = string

(* FIPS 180-1 compression implemented on native ints (32-bit words kept
   masked to [mask32]); avoids Int32 boxing, which matters because the
   KVS content-addresses every value it stores. *)

let mask32 = 0xFFFFFFFF

let rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

type state = {
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  w : int array; (* 80-word schedule, reused across blocks *)
}

let init () =
  {
    h0 = 0x67452301;
    h1 = 0xEFCDAB89;
    h2 = 0x98BADCFE;
    h3 = 0x10325476;
    h4 = 0xC3D2E1F0;
    w = Array.make 80 0;
  }

let process_block st block off =
  let w = st.w in
  for i = 0 to 15 do
    let base = off + (4 * i) in
    w.(i) <-
      (Char.code (Bytes.unsafe_get block base) lsl 24)
      lor (Char.code (Bytes.unsafe_get block (base + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get block (base + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get block (base + 3))
  done;
  for i = 16 to 79 do
    w.(i) <- rotl32 (w.(i - 3) lxor w.(i - 8) lxor w.(i - 14) lxor w.(i - 16)) 1
  done;
  let a = ref st.h0 and b = ref st.h1 and c = ref st.h2 and d = ref st.h3 and e = ref st.h4 in
  for i = 0 to 79 do
    let f, k =
      if i < 20 then ((!b land !c) lor (lnot !b land !d) land mask32, 0x5A827999)
      else if i < 40 then (!b lxor !c lxor !d, 0x6ED9EBA1)
      else if i < 60 then ((!b land !c) lor (!b land !d) lor (!c land !d), 0x8F1BBCDC)
      else (!b lxor !c lxor !d, 0xCA62C1D6)
    in
    let temp = (rotl32 !a 5 + (f land mask32) + !e + k + w.(i)) land mask32 in
    e := !d;
    d := !c;
    c := rotl32 !b 30;
    b := !a;
    a := temp
  done;
  st.h0 <- (st.h0 + !a) land mask32;
  st.h1 <- (st.h1 + !b) land mask32;
  st.h2 <- (st.h2 + !c) land mask32;
  st.h3 <- (st.h3 + !d) land mask32;
  st.h4 <- (st.h4 + !e) land mask32

let digest_bytes_raw s =
  let st = init () in
  let len = String.length s in
  let full_blocks = len / 64 in
  let block = Bytes.create 64 in
  for i = 0 to full_blocks - 1 do
    Bytes.blit_string s (64 * i) block 0 64;
    process_block st block 0
  done;
  (* Padding: 0x80, zeros, 64-bit big-endian bit length. *)
  let rem = len - (64 * full_blocks) in
  let bit_len = 8 * len in
  let tail = Bytes.make (if rem < 56 then 64 else 128) '\000' in
  Bytes.blit_string s (64 * full_blocks) tail 0 rem;
  Bytes.set tail rem '\x80';
  let tlen = Bytes.length tail in
  for j = 0 to 7 do
    Bytes.set tail (tlen - 1 - j) (Char.chr ((bit_len lsr (8 * j)) land 0xFF))
  done;
  process_block st tail 0;
  if tlen = 128 then process_block st tail 64;
  let out = Bytes.create 20 in
  let put i v =
    Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out ((4 * i) + 3) (Char.chr (v land 0xff))
  in
  put 0 st.h0;
  put 1 st.h1;
  put 2 st.h2;
  put 3 st.h3;
  put 4 st.h4;
  Bytes.unsafe_to_string out

let digest_string s = Flux_util.Hexs.encode (digest_bytes_raw s)

(* The KVS tree shares unchanged interior nodes across commits (only the
   rebuilt directory spine is fresh), so re-hashing a node the store has
   already digested is pure waste: memoize per physical value, exactly
   like git reuses the object id of an unchanged subtree. Scalars are
   cheap to hash and rarely shared, so only containers are memoized. *)
let digest_memo : string Json.Memo.t = Json.Memo.create ()

(* Matches the size-memo policy in [Json]: small values are cheaper to
   re-hash than to track in the weak table. *)
let memo_threshold = 1024

let digest_json v =
  match v with
  | Json.List _ | Json.Obj _ -> (
    match Json.Memo.find digest_memo v with
    | Some d -> d
    | None ->
      let s = Json.to_string v in
      let d = digest_string s in
      if String.length s >= memo_threshold then Json.Memo.add digest_memo v d;
      d)
  | _ -> digest_string (Json.to_string v)

(* One pass that validates and notes whether any digit needs lowering:
   a digest this module printed (the common case) comes back as is. *)
let of_hex s =
  let invalid () = invalid_arg "Sha1.of_hex: expected 40 hex characters" in
  if String.length s <> 40 then invalid ();
  let upper = ref false in
  for i = 0 to 39 do
    match String.unsafe_get s i with
    | '0' .. '9' | 'a' .. 'f' -> ()
    | 'A' .. 'F' -> upper := true
    | _ -> invalid ()
  done;
  if !upper then String.lowercase_ascii s else s

let to_hex d = d
let equal = String.equal
let compare = String.compare
let pp ppf d = Format.pp_print_string ppf d
let short d = String.sub d 0 8
