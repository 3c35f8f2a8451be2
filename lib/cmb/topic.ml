let word_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
  | _ -> false

let rec valid_from s i component_start =
  if i = String.length s then not component_start
  else if s.[i] = '.' then (not component_start) && valid_from s (i + 1) true
  else word_char s.[i] && valid_from s (i + 1) false

let is_valid s = valid_from s 0 true

let service s =
  match String.index_opt s '.' with
  | Some i -> String.sub s 0 i
  | None -> s

let method_ s =
  match String.index_opt s '.' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> ""

let rec same_from prefix topic i =
  i = String.length prefix || (prefix.[i] = topic.[i] && same_from prefix topic (i + 1))

let prefixed ~prefix topic =
  let n = String.length prefix in
  n = 0
  || String.length topic >= n
     && same_from prefix topic 0
     && (String.length topic = n || topic.[n] = '.')
