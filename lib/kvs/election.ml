type phase = Thawed | Taking_over | Rejoining
type state = { epoch : int; master : int; is_master : bool; phase : phase }

type input =
  | Died of int
  | Revived
  | Adopted of { epoch : int; master : int }
  | Hello of int
  | Round_ended of { epoch : int; master : int }

type effect = Ask_peers | Adopt | Publish_setroot | Publish_hello | Promote | Demote | Forget | Thaw

let init ~self ~master = { epoch = 0; master; is_master = self = master; phase = Thawed }
let settled s ~epoch ~master = epoch = s.epoch && (master < 0 || master = s.master) && s.phase = Thawed
let thaw s = if s.phase = Thawed then [] else [ Thaw ]

(* Non-preemptive: a master never asks, and a rejoiner stays rejoining
   while its round runs, so a live master's announcement still thaws it. *)
let take_over ~self s =
  if s.is_master then ({ s with master = self }, [])
  else
    ({ s with master = self; phase = (if s.phase = Thawed then Taking_over else s.phase) }, [ Ask_peers ])

(* The first live rank of [order] but [gone] succeeds [gone]. *)
let elect ~self ~order ~live ~gone s =
  match List.find_opt (fun r -> r <> gone && live r) order with
  | Some m when m = self -> take_over ~self s
  | Some m -> ({ s with master = m }, [])
  | None -> (s, [])

let step ~self ~order ~live s input =
  match input with
  | Died r when r = self || not (live self) -> (s, [])
  | Died r when r = s.master -> elect ~self ~order ~live ~gone:r s
  | Died _ when s.phase = Rejoining && List.find_opt live order = Some self -> take_over ~self s
  | Died _ -> (s, [])
  | Revived ->
    let demote = if s.is_master then [ Demote ] else [] in
    let s = { s with master = -1; is_master = false; phase = Rejoining } in
    if List.exists (fun r -> r <> self && live r) order then (s, demote @ [ Forget; Publish_hello ])
    else
      let s, ask = take_over ~self s in
      (s, demote @ (Forget :: ask))
  | Adopted { epoch; _ } when epoch < s.epoch -> (s, [])
  | Adopted { epoch; master } ->
    let named = master >= 0 && master <> s.master in
    let deposed = named && s.is_master && master <> self in
    let s = { s with epoch; master = (if named then master else s.master); is_master = s.is_master && not deposed } in
    let adopt = if deposed then [ Demote; Adopt ] else [ Adopt ] in
    if s.phase = Rejoining && s.master >= 0 && live s.master && (s.master <> self || s.is_master) then
      ({ s with phase = Thawed }, adopt @ [ Thaw ])
    else (s, adopt)
  | Hello r when r = s.master && r <> self -> elect ~self ~order ~live ~gone:r s
  | Hello _ -> (s, if s.is_master && s.phase = Thawed then [ Publish_setroot ] else [])
  | Round_ended _ when s.is_master || not (live self) -> (s, [])
  | Round_ended { epoch; master } when master >= 0 && master <> self && live master ->
    ({ epoch = max epoch s.epoch; master; is_master = false; phase = Thawed }, Adopt :: thaw s)
  | Round_ended { epoch; _ } ->
    ( { epoch = max epoch s.epoch + 1; master = self; is_master = true; phase = Thawed },
      Adopt :: Promote :: Publish_setroot :: thaw s )
