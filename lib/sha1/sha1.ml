module Json = Flux_json.Json

type digest = string

(* FIPS 180-1 compression implemented on native ints (32-bit words kept
   masked to [mask32]); avoids Int32 boxing, which matters because the
   KVS content-addresses every value it stores. *)

let mask32 = 0xFFFFFFFF

let[@inline] rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

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

(* The 80 rounds run as four 20-round phases, each with its function and
   constant fixed. A phase is a self tail call taking the five working
   variables as arguments, so they stay in registers: no test per round
   picks the function, and no closure boxes the variables (a local
   [round] closure would allocate on every hashed byte). [i] < 80, the
   schedule's length. *)
let rec phase1 st w i a b c d e =
  if i = 20 then phase2 st w i a b c d e
  else
    let f = (b land c) lor (lnot b land d) in
    phase1 st w (i + 1)
      ((rotl32 a 5 + f + e + 0x5A827999 + Array.unsafe_get w i) land mask32)
      a (rotl32 b 30) c d

and phase2 st w i a b c d e =
  if i = 40 then phase3 st w i a b c d e
  else
    let f = b lxor c lxor d in
    phase2 st w (i + 1)
      ((rotl32 a 5 + f + e + 0x6ED9EBA1 + Array.unsafe_get w i) land mask32)
      a (rotl32 b 30) c d

and phase3 st w i a b c d e =
  if i = 60 then phase4 st w i a b c d e
  else
    let f = (b land c) lor (b land d) lor (c land d) in
    phase3 st w (i + 1)
      ((rotl32 a 5 + f + e + 0x8F1BBCDC + Array.unsafe_get w i) land mask32)
      a (rotl32 b 30) c d

and phase4 st w i a b c d e =
  if i = 80 then begin
    st.h0 <- (st.h0 + a) land mask32;
    st.h1 <- (st.h1 + b) land mask32;
    st.h2 <- (st.h2 + c) land mask32;
    st.h3 <- (st.h3 + d) land mask32;
    st.h4 <- (st.h4 + e) land mask32
  end
  else
    let f = b lxor c lxor d in
    phase4 st w (i + 1)
      ((rotl32 a 5 + f + e + 0xCA62C1D6 + Array.unsafe_get w i) land mask32)
      a (rotl32 b 30) c d

(* One 64-byte block of [block] from [off]. *)
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
  phase1 st w 0 st.h0 st.h1 st.h2 st.h3 st.h4

(* The padding step both digests share: [tail] (64 bytes) starts with
   the last [len mod 64] bytes of a [len]-byte message whose full blocks
   are already processed. Appends 0x80, zeros and the 64-bit big-endian
   bit length, in one block or two. *)
let finish st tail len =
  let rem = len land 63 in
  Bytes.set tail rem '\x80';
  if rem >= 56 then begin
    Bytes.fill tail (rem + 1) (63 - rem) '\000';
    process_block st tail 0;
    Bytes.fill tail 0 56 '\000'
  end
  else Bytes.fill tail (rem + 1) (55 - rem) '\000';
  let bit_len = 8 * len in
  for j = 0 to 7 do
    Bytes.set tail (63 - j) (Char.chr ((bit_len lsr (8 * j)) land 0xFF))
  done;
  process_block st tail 0;
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
  Flux_util.Hexs.encode (Bytes.unsafe_to_string out)

let digest_string s =
  let st = init () in
  let len = String.length s in
  let full_blocks = len / 64 in
  (* Read in place: [process_block] never writes its block. *)
  let blocks = Bytes.unsafe_of_string s in
  for i = 0 to full_blocks - 1 do
    process_block st blocks (64 * i)
  done;
  let tail = Bytes.create 64 in
  Bytes.blit_string s (64 * full_blocks) tail 0 (len - (64 * full_blocks));
  finish st tail len

(* Hash the printer's 64-byte chunks as they fill: the serialization is
   never built as a string. *)
let digest_json v =
  let st = init () in
  let chunk = Bytes.create 64 in
  let len = Json.print ~chunk (fun block -> process_block st block 0) v in
  finish st chunk len

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
let short d = String.sub d 0 8
